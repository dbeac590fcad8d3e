package luna

import (
	"context"
	"strings"
	"sync"
)

// Conversation wraps a Service with history so users can ask follow-up
// questions that implicitly refer to the previous query — "what about
// incidents without substantial damage", "show only results in
// California" (§6.2).
//
// It keeps only what a follow-up reads, the last good result, and a turn
// count: a long session holds one result, not every turn's.
//
// Ask and Turns are safe for concurrent use: an internal mutex serializes
// turns so parallel clients of one conversation cannot interleave them
// (the serving layer relies on this).
type Conversation struct {
	Service *Service

	mu    sync.Mutex
	last  *Result // the last turn that succeeded; nil before the first
	turns int
}

// NewConversation starts an empty conversation over the service.
func NewConversation(s *Service) *Conversation { return &Conversation{Service: s} }

var followUpPrefixes = []string{
	"what about", "how about", "show only", "and what about", "now show", "only",
}

// followUpFragment returns the referring fragment if the question is a
// follow-up ("" otherwise).
func followUpFragment(question string) string {
	q := strings.ToLower(strings.TrimSpace(question))
	for _, p := range followUpPrefixes {
		if strings.HasPrefix(q, p) {
			return strings.TrimSpace(strings.TrimSuffix(q[len(p):], "?"))
		}
	}
	return ""
}

// Ask answers the question, resolving follow-ups against the previous
// plan: the fragment's filters replace same-field filters in the prior
// plan's root scan while the terminal shape is kept. Turns are serialized:
// a follow-up always resolves against a fully recorded previous result.
func (c *Conversation) Ask(ctx context.Context, question string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var res *Result
	var err error
	if fragment := followUpFragment(question); fragment == "" || c.last == nil {
		res, err = c.Service.Ask(ctx, question)
	} else {
		res, err = c.Service.RunPlan(ctx, question, c.mergeFollowUp(c.last.Rewritten, fragment))
	}
	if err != nil {
		// Propagate the partial result (if any) for degraded-mode serving,
		// but do not record the turn: a follow-up must never resolve
		// against a turn that failed.
		return res, err
	}
	c.last = res
	c.turns++
	return res, nil
}

// mergeFollowUp rewrites the previous plan's DAG with the fragment's
// conditions: new property filters replace same-field filters on every
// queryDatabase root, and new semantic predicates are inserted as
// llmFilter nodes directly downstream of the first root, keeping the
// terminal shape of the query.
func (c *Conversation) mergeFollowUp(prev *LogicalPlan, fragment string) *LogicalPlan {
	st := &parseState{
		parser:   &parser{schema: c.Service.Planner.Schema},
		original: fragment,
		text:     " " + strings.ToLower(fragment) + " ",
		fragment: true,
	}
	st.extractFilters()

	prev.normalize()
	plan := prev.Clone()

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
	downstream := plan.consumers(firstRoot)
	cur := firstRoot
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
		// Repoint the root's original consumers at the filter chain tail.
		for _, id := range downstream {
			n := plan.node(id)
			for j, in := range n.Inputs {
				if in == firstRoot {
					n.Inputs[j] = cur
				}
			}
		}
		if plan.Output == firstRoot {
			plan.Output = cur
		}
	}
	return plan
}

// Turns reports how many exchanges the conversation has recorded.
func (c *Conversation) Turns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.turns
}
