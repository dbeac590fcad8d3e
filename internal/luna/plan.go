package luna

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aryn/internal/llm"
)

// Op names — the logical operator vocabulary exposed to the planner LLM
// (§6.1). Deliberately higher-level than the physical Sycamore operators:
// groupByAggregate and llmCluster compile to map/reduce chains, but the
// planner reasons in these terms.
const (
	OpQueryDatabase       = "queryDatabase"
	OpQueryVectorDatabase = "queryVectorDatabase"
	OpBasicFilter         = "basicFilter"
	OpLLMFilter           = "llmFilter"
	OpLLMExtract          = "llmExtract"
	OpGroupByAggregate    = "groupByAggregate"
	OpLLMCluster          = "llmCluster"
	OpTopK                = "topK"
	OpCount               = "count"
	OpFraction            = "fraction"
	OpLimit               = "limit"
	OpProject             = "project"
	OpLLMGenerate         = "llmGenerate"
	// OpJoin combines two upstream pipelines on equal property values —
	// the §9 "extend Aryn to support joins" direction. It is the only
	// operator with two inputs, which is what makes plans DAGs rather
	// than chains.
	OpJoin = "join"
)

// FilterSpec is one property predicate inside a plan.
type FilterSpec struct {
	Field string `json:"field"`
	// Kind is "term", "contains", "gte", or "lte".
	Kind  string `json:"kind"`
	Value any    `json:"value"`
}

// LogicalOp is one step of a logical plan. Exactly the fields relevant to
// its Op are set.
type LogicalOp struct {
	Op string `json:"op"`
	// queryDatabase / basicFilter
	Keyword string       `json:"keyword,omitempty"`
	Filters []FilterSpec `json:"filters,omitempty"`
	// llmFilter / fraction
	Question string `json:"question,omitempty"`
	// llmFilter, fused form: the node keeps a document
	// when every one of these (two or more) is answered yes, asking the
	// model about each document at most once. The optimize phase writes it
	// (fuseLLMFilters); a submitted plan may carry it in place of question.
	Questions []string `json:"questions,omitempty"`
	// llmExtract
	Fields []llm.FieldSpec `json:"fields,omitempty"`
	// llmExtract, scoped form (1; 0 reads the whole document): the model
	// reads each document's preamble and, per field, the one section ranked
	// highest for it, and the whole document only when that leaves a field
	// null (docset.LLMExtractScoped). The optimize phase writes it
	// (scopeExtracts), so a resubmitted plan.optimized carries it.
	Sections int `json:"sections,omitempty"`
	// groupByAggregate
	Key        string `json:"key,omitempty"`
	Agg        string `json:"agg,omitempty"`
	ValueField string `json:"value_field,omitempty"`
	// topK / limit / llmCluster / queryVectorDatabase
	K int `json:"k,omitempty"`
	// topK / distinct
	Field string `json:"field,omitempty"`
	// project
	ProjectFields []string `json:"project_fields,omitempty"`
	// llmGenerate
	Instruction string `json:"instruction,omitempty"`
	// queryVectorDatabase
	Query string `json:"query,omitempty"`
	// join: the equality keys on the left (first input) and right
	// (second input) side, the join kind (inner/left/semi/anti, default
	// inner), and the namespace prefix under which right-side properties
	// are merged (default "right").
	LeftKey  string `json:"left_key,omitempty"`
	RightKey string `json:"right_key,omitempty"`
	JoinKind string `json:"join_kind,omitempty"`
	Prefix   string `json:"prefix,omitempty"`
}

// PlanNode is one vertex of a logical plan DAG: a unique ID, the IDs of
// the nodes whose output it consumes (empty for query roots, two for
// join, one for everything else), and the operator parameters.
type PlanNode struct {
	ID     string   `json:"id"`
	Inputs []string `json:"inputs,omitempty"`
	LogicalOp
}

// LogicalPlan is the operator DAG Luna executes, exposed to users "as a
// simple JSON object" (§6.2) in the form
//
//	{"nodes": [{"id": "n1", "op": ..., "inputs": [...], ...params}], "output": "n3"}
type LogicalPlan struct {
	Nodes  []PlanNode `json:"nodes"`
	Output string     `json:"output,omitempty"`
}

// Chain builds a linear DAG plan n1 -> n2 -> ... from an operator list —
// the constructor the grammar planner uses.
func Chain(ops ...LogicalOp) *LogicalPlan {
	p := &LogicalPlan{Nodes: make([]PlanNode, len(ops))}
	for i, op := range ops {
		n := PlanNode{ID: fmt.Sprintf("n%d", i+1), LogicalOp: op}
		if i > 0 {
			n.Inputs = []string{fmt.Sprintf("n%d", i)}
		}
		p.Nodes[i] = n
		p.Output = n.ID
	}
	return p
}

// normalize infers a missing Output as the unique sink (tolerant decode:
// a single sink is unambiguous). Idempotent.
func (p *LogicalPlan) normalize() {
	if p.Output == "" && len(p.Nodes) > 0 {
		sinks := p.sinks()
		if len(sinks) == 1 {
			p.Output = sinks[0]
		}
	}
}

// sinks returns the IDs of nodes no other node consumes, in declaration
// order.
func (p *LogicalPlan) sinks() []string {
	consumed := map[string]bool{}
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			consumed[in] = true
		}
	}
	var out []string
	for _, n := range p.Nodes {
		if !consumed[n.ID] {
			out = append(out, n.ID)
		}
	}
	return out
}

// node returns the named node (nil if absent).
func (p *LogicalPlan) node(id string) *PlanNode {
	for i := range p.Nodes {
		if p.Nodes[i].ID == id {
			return &p.Nodes[i]
		}
	}
	return nil
}

// consumers returns the IDs of nodes reading id's output, in declaration
// order.
func (p *LogicalPlan) consumers(id string) []string {
	var out []string
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			if in == id {
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}

// freshID mints a node ID unused by the plan.
func (p *LogicalPlan) freshID() string {
	used := map[string]bool{}
	for _, n := range p.Nodes {
		used[n.ID] = true
	}
	for i := len(p.Nodes) + 1; ; i++ {
		id := fmt.Sprintf("n%d", i)
		if !used[id] {
			return id
		}
	}
}

// topoOrder returns node indices in a deterministic topological order
// (declaration order among ready nodes), or an error naming a dangling
// input or a cycle — the structural half of plan validation, also needed
// by the compiler.
func (p *LogicalPlan) topoOrder() ([]int, error) {
	index := map[string]int{}
	for i, n := range p.Nodes {
		if _, dup := index[n.ID]; dup {
			return nil, fmt.Errorf("duplicate node id %q", n.ID)
		}
		index[n.ID] = i
	}
	for _, n := range p.Nodes {
		for _, in := range n.Inputs {
			if _, ok := index[in]; !ok {
				return nil, fmt.Errorf("node %s: dangling input %q", n.ID, in)
			}
		}
	}
	done := make([]bool, len(p.Nodes))
	order := make([]int, 0, len(p.Nodes))
	for len(order) < len(p.Nodes) {
		progressed := false
		for i, n := range p.Nodes {
			if done[i] {
				continue
			}
			ready := true
			for _, in := range n.Inputs {
				if !done[index[in]] {
					ready = false
					break
				}
			}
			if ready {
				done[i] = true
				order = append(order, i)
				progressed = true
			}
		}
		if !progressed {
			var stuck []string
			for i, n := range p.Nodes {
				if !done[i] {
					stuck = append(stuck, n.ID)
				}
			}
			sort.Strings(stuck)
			return nil, fmt.Errorf("cycle involving nodes %s", strings.Join(stuck, ", "))
		}
	}
	return order, nil
}

// Clone deep-copies the plan (nodes, edges, and parameter slices), so
// rewrites and user edits never alias the original.
func (p *LogicalPlan) Clone() *LogicalPlan {
	out := &LogicalPlan{Output: p.Output}
	out.Nodes = make([]PlanNode, len(p.Nodes))
	for i, n := range p.Nodes {
		c := n
		c.Inputs = append([]string(nil), n.Inputs...)
		c.LogicalOp = cloneOp(n.LogicalOp)
		out.Nodes[i] = c
	}
	return out
}

func cloneOp(op LogicalOp) LogicalOp {
	op.Questions = append([]string(nil), op.Questions...)
	op.Filters = append([]FilterSpec(nil), op.Filters...)
	op.Fields = append([]llm.FieldSpec(nil), op.Fields...)
	op.ProjectFields = append([]string(nil), op.ProjectFields...)
	return op
}

// questions returns the predicates an llmFilter node
// asks: its fused list, or its one question.
func (op LogicalOp) questions() []string {
	if len(op.Questions) > 0 {
		return op.Questions
	}
	return []string{op.Question}
}

// setQuestions writes the predicates of an llmFilter node in its wire
// form: one is a question, several are the fused list.
func (op *LogicalOp) setQuestions(qs []string) {
	op.Question, op.Questions = "", qs
	if len(qs) == 1 {
		op.Question, op.Questions = qs[0], nil
	}
}

// describeQuestions renders a filter node's predicates for plan display.
func (op LogicalOp) describeQuestions() string {
	quoted := make([]string, len(op.questions()))
	for i, q := range op.questions() {
		quoted[i] = strconv.Quote(q)
	}
	return strings.Join(quoted, " AND ")
}

// JSON renders the plan in the exact format the planner LLM emits and the
// UI displays (§6.2: "Luna exposes the plan ... as a simple JSON object").
func (p *LogicalPlan) JSON() string {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}

// ParsePlan decodes planner output, tolerating surrounding prose by
// extracting the outermost JSON object.
func ParsePlan(text string) (*LogicalPlan, error) {
	start := strings.Index(text, "{")
	end := strings.LastIndex(text, "}")
	if start < 0 || end <= start {
		return nil, fmt.Errorf("luna: planner returned no JSON object: %q", truncate(text, 120))
	}
	var p LogicalPlan
	if err := json.Unmarshal([]byte(text[start:end+1]), &p); err != nil {
		return nil, fmt.Errorf("luna: plan JSON invalid: %w", err)
	}
	return &p, nil
}

// String renders a human-readable plan summary: one line per node with
// its ID and input edges, in topological order.
func (p *LogicalPlan) String() string {
	q := *p
	q.normalize()
	var sb strings.Builder
	order, err := q.topoOrder()
	if err != nil {
		// Render in declaration order so even malformed plans display.
		order = make([]int, len(q.Nodes))
		for i := range order {
			order[i] = i
		}
	}
	for i, idx := range order {
		n := q.Nodes[idx]
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%s. %s", n.ID, n.Describe())
		if len(n.Inputs) > 0 {
			fmt.Fprintf(&sb, " <- %s", strings.Join(n.Inputs, ", "))
		}
		if n.ID == q.Output {
			sb.WriteString(" [output]")
		}
	}
	return sb.String()
}

// Describe renders one operator for plan display.
func (op LogicalOp) Describe() string {
	switch op.Op {
	case OpQueryDatabase:
		parts := []string{}
		if op.Keyword != "" {
			parts = append(parts, fmt.Sprintf("keyword=%q", op.Keyword))
		}
		for _, f := range op.Filters {
			parts = append(parts, fmt.Sprintf("%s %s %v", f.Field, f.Kind, f.Value))
		}
		if len(parts) == 0 {
			parts = append(parts, "scan all")
		}
		return "queryDatabase(" + strings.Join(parts, ", ") + ")"
	case OpQueryVectorDatabase:
		return fmt.Sprintf("queryVectorDatabase(%q, k=%d)", op.Query, op.K)
	case OpBasicFilter:
		parts := make([]string, len(op.Filters))
		for i, f := range op.Filters {
			parts[i] = fmt.Sprintf("%s %s %v", f.Field, f.Kind, f.Value)
		}
		return "basicFilter(" + strings.Join(parts, " AND ") + ")"
	case OpLLMFilter:
		return "llmFilter(" + op.describeQuestions() + ")"
	case OpLLMExtract:
		names := make([]string, len(op.Fields))
		for i, f := range op.Fields {
			names[i] = f.Name
		}
		if op.Sections > 0 {
			return "llmExtract(" + strings.Join(names, ", ") + ", sections=1)"
		}
		return "llmExtract(" + strings.Join(names, ", ") + ")"
	case OpGroupByAggregate:
		if op.Agg == "count" {
			return fmt.Sprintf("groupByAggregate(by=%s, count)", op.Key)
		}
		return fmt.Sprintf("groupByAggregate(by=%s, %s(%s))", op.Key, op.Agg, op.ValueField)
	case OpLLMCluster:
		return fmt.Sprintf("llmCluster(k=%d)", op.K)
	case OpTopK:
		return fmt.Sprintf("topK(%s, k=%d)", op.Field, op.K)
	case OpCount:
		return "count()"
	case OpFraction:
		return fmt.Sprintf("fraction(%q)", op.Question)
	case OpLimit:
		return fmt.Sprintf("limit(%d)", op.K)
	case OpProject:
		return "project(" + strings.Join(op.ProjectFields, ", ") + ")"
	case OpLLMGenerate:
		return fmt.Sprintf("llmGenerate(%q)", op.Instruction)
	case OpJoin:
		return fmt.Sprintf("join(%s, %s=%s)", joinKindOrDefault(op.JoinKind), op.LeftKey, op.RightKey)
	case opDistinct:
		return fmt.Sprintf("distinct(%s)", op.Field)
	default:
		return op.Op + "(?)"
	}
}

// joinKindOrDefault applies the inner-join default.
func joinKindOrDefault(kind string) string {
	if kind == "" {
		return "inner"
	}
	return kind
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
