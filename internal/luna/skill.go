package luna

import (
	"encoding/json"
	"math/rand"
	"strings"

	"aryn/internal/llm"
)

// BuildPlanPrompt assembles the planning prompt exactly as §6.1
// prescribes: the DocSet schema with examples, the logical operator
// catalogue, few-shot example plans, and the user question, with an
// instruction to emit JSON.
func BuildPlanPrompt(schema Schema, question string) string {
	var sb strings.Builder
	sb.WriteString(llm.TaskPlan + "\n")
	sb.WriteString("You are a query planner. Decompose the user question into a JSON plan DAG over the logical operators below. Respond with a single JSON object {\"nodes\": [{\"id\": ..., \"op\": ..., \"inputs\": [...], ...params}], \"output\": <id>}. Source operators take no inputs, join takes two, everything else takes one.\n")
	sb.WriteString(schema.PromptBlock())
	sb.WriteString(operatorCatalogue)
	sb.WriteString(fewShotExamples)
	sb.WriteString("QUESTION: " + question + "\n")
	return sb.String()
}

// previousPlanHeader opens the block a follow-up's planning prompt ends
// with: the DAG JSON of the plan the follow-up refers to.
const previousPlanHeader = "PREVIOUS PLAN (the question follows up on its result):\n"

const operatorCatalogue = `OPERATORS:
- queryDatabase(filters, keyword): scan the index with property filters and/or keyword search (source, no inputs)
- queryVectorDatabase(query, k): semantic search over document chunks (source, no inputs)
- basicFilter(filters): property predicate on the current set
- llmFilter(question): keep documents for which the LLM answers yes
- llmExtract(fields): extract new properties from document text
- groupByAggregate(key, agg, value_field): group and aggregate (count/sum/avg/min/max)
- llmCluster(k): k-means cluster documents by semantic similarity
- topK(field, k): keep the k documents with the largest field value
- count(): count documents
- fraction(question): fraction of current documents satisfying the predicate
- limit(n) / project(project_fields) / llmGenerate(instruction)
- join(left_key, right_key, join_kind, prefix): combine two inputs on equal property values (inner/left/semi/anti); right-side properties merge under "<prefix>."
`

const fewShotExamples = `EXAMPLES:
Q: How many incidents were there in Kentucky?
A: {"nodes":[{"id":"n1","op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}
Q: What was the most commonly damaged part of the aircraft?
A: {"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","op":"llmExtract","inputs":["n1"],"fields":[{"name":"damaged_part","type":"string"}]},{"id":"n3","op":"groupByAggregate","inputs":["n2"],"key":"damaged_part","agg":"count"},{"id":"n4","op":"topK","inputs":["n3"],"field":"value","k":1}],"output":"n4"}
Q: Which incidents involved lightning strikes?
A: {"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","op":"llmFilter","inputs":["n1"],"question":"Does the document indicate lightning strikes?"},{"id":"n3","op":"project","inputs":["n2"],"project_fields":["accidentNumber"]}],"output":"n3"}
Q: For fatal incidents, list other incidents in the same state.
A: {"nodes":[{"id":"n1","op":"queryDatabase","filters":[{"field":"fatalities","kind":"gte","value":1}]},{"id":"n2","op":"queryDatabase"},{"id":"n3","op":"join","inputs":["n1","n2"],"left_key":"us_state","right_key":"us_state","join_kind":"inner","prefix":"peer"},{"id":"n4","op":"project","inputs":["n3"],"project_fields":["accidentNumber","peer.accidentNumber"]}],"output":"n4"}
`

// PlannerSkill is the query-planning capability registered on the Sim
// model. It answers TaskPlan prompts by running the semantic parser over
// the schema and question found in the prompt — using only information
// the prompt carries, like a hosted model would. A follow-up that carries
// the previous plan is answered by merging the follow-up into that plan.
type PlannerSkill struct{}

// Match reports whether the request is a planning prompt.
func (PlannerSkill) Match(req llm.Request) bool {
	return strings.HasPrefix(req.Prompt, llm.TaskPlan)
}

// Run parses the prompt's schema and question and emits the plan JSON.
func (PlannerSkill) Run(_ *rand.Rand, req llm.Request) (string, error) {
	head, prevBlock, isFollowUp := strings.Cut(req.Prompt, previousPlanHeader)
	schema := parseSchemaBlock(head)
	question := promptQuestion(head)
	if fragment := followUpFragment(question); isFollowUp && fragment != "" {
		var prev LogicalPlan
		if json.NewDecoder(strings.NewReader(prevBlock)).Decode(&prev) == nil {
			return mergeFollowUp(&prev, fragment).JSON(), nil
		}
	}
	p := &parser{schema: schema}
	plan, err := p.Parse(question)
	if err != nil {
		return `{"nodes":[]}`, nil // models emit degenerate plans, not errors
	}
	return plan.JSON(), nil
}

func promptQuestion(prompt string) string {
	idx := strings.LastIndex(prompt, "QUESTION: ")
	if idx < 0 {
		return ""
	}
	q := prompt[idx+len("QUESTION: "):]
	if nl := strings.Index(q, "\n"); nl >= 0 {
		q = q[:nl]
	}
	return strings.TrimSpace(q)
}

// mergeFollowUp rewrites the previous plan's DAG, in place, with the
// fragment's conditions: new property filters replace same-field filters
// on every queryDatabase root, and new semantic predicates are inserted
// as llmFilter nodes directly downstream of the first root, keeping the
// terminal shape of the query. The conditions name fields by fixed
// phrases, so the merge needs no schema.
func mergeFollowUp(plan *LogicalPlan, fragment string) *LogicalPlan {
	st := &parseState{text: " " + strings.ToLower(fragment) + " ", fragment: true}
	st.extractFilters()
	plan.normalize()

	// Replace same-field filters, append new ones, on each scan root.
	newFields := map[string]bool{}
	for _, f := range st.filters {
		newFields[f.Field] = true
	}
	var firstRoot string
	for i := range plan.Nodes {
		n := &plan.Nodes[i]
		if len(n.Inputs) != 0 {
			continue
		}
		if firstRoot == "" && (n.Op == OpQueryDatabase || n.Op == OpQueryVectorDatabase) {
			firstRoot = n.ID
		}
		if n.Op != OpQueryDatabase {
			continue
		}
		var kept []FilterSpec
		for _, f := range n.Filters {
			if !newFields[f.Field] {
				kept = append(kept, f)
			}
		}
		n.Filters = append(kept, st.filters...)
	}
	if firstRoot == "" {
		return plan
	}

	// Insert new semantic predicates after the first root (dedup against
	// questions the plan already asks anywhere).
	existing := map[string]bool{}
	for _, n := range plan.Nodes {
		if n.Op == OpLLMFilter {
			for _, q := range n.questions() {
				existing[q] = true
			}
		}
	}
	head, cur := len(plan.Nodes), firstRoot
	for _, pred := range st.llmPreds {
		q := "Does the document indicate " + pred + "?"
		if existing[q] {
			continue
		}
		existing[q] = true
		node := PlanNode{
			ID:        plan.freshID(),
			Inputs:    []string{cur},
			LogicalOp: LogicalOp{Op: OpLLMFilter, Question: q},
		}
		plan.Nodes = append(plan.Nodes, node)
		cur = node.ID
	}
	if cur != firstRoot {
		// What read the root now reads the chain's tail; the chain's
		// head still reads the root.
		plan.redirect(firstRoot, cur)
		plan.Nodes[head].Inputs[0] = firstRoot
	}
	return plan
}

var _ llm.Skill = PlannerSkill{}
