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
// Ask, Last, and Turns are safe for concurrent use: an internal mutex
// serializes turns so parallel clients of one conversation cannot
// interleave history (the serving layer relies on this). Direct History
// reads are only safe once no Ask is in flight.
type Conversation struct {
	Service *Service
	// History records every exchange in order.
	History []*Result

	mu sync.Mutex
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
	fragment := followUpFragment(question)
	if fragment == "" || len(c.History) == 0 {
		res, err := c.Service.Ask(ctx, question)
		if err != nil {
			// Propagate the partial result (if any) for degraded-mode
			// serving, but keep it out of history: a follow-up must never
			// resolve against a turn that failed.
			return res, err
		}
		c.History = append(c.History, res)
		return res, nil
	}

	prev := c.History[len(c.History)-1]
	merged := c.mergeFollowUp(prev.Rewritten, fragment)
	res, err := c.Service.RunPlan(ctx, question, merged)
	if err != nil {
		return res, err
	}
	c.History = append(c.History, res)
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

// Last returns the most recent result (nil if none).
func (c *Conversation) Last() *Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.History) == 0 {
		return nil
	}
	return c.History[len(c.History)-1]
}

// Turns reports how many exchanges the conversation has recorded.
func (c *Conversation) Turns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.History)
}
