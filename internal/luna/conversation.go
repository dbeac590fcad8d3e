package luna

import (
	"context"
	"strings"
	"sync"
)

// Conversation keeps the history that lets users ask follow-up questions
// which implicitly refer to the previous query — "what about incidents
// without substantial damage", "show only results in California" (§6.2).
// A follow-up is planned like any question, with the previous turn's plan
// in the planning prompt: the model resolves what the follow-up refers to.
//
// It keeps only what a follow-up reads, the last good result, and a turn
// count: a long session holds one result, not every turn's. Each turn is
// answered by the service its caller passes; the zero value is ready.
//
// Ask and Turns are safe for concurrent use: an internal mutex serializes
// turns so parallel clients of one conversation cannot interleave them
// (the serving layer relies on this).
type Conversation struct {
	mu    sync.Mutex
	last  *Result // the last turn that succeeded; nil before the first
	turns int
}

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

// Ask answers the question with svc. A follow-up after a good turn is
// planned with that turn's rewritten plan beside it; anything else is
// planned on its own. Turns are serialized: a follow-up always refers to a
// fully recorded previous result.
func (c *Conversation) Ask(ctx context.Context, svc *Service, question string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev *LogicalPlan
	if c.last != nil && followUpFragment(question) != "" {
		prev = c.last.Rewritten
	}
	res, err := svc.ask(ctx, question, prev)
	if err != nil {
		// Propagate the partial result (if any) for degraded-mode serving,
		// but do not record the turn: a follow-up must never refer to a
		// turn that failed.
		return res, err
	}
	c.last = res
	c.turns++
	return res, nil
}

// Turns reports how many exchanges the conversation has recorded.
func (c *Conversation) Turns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.turns
}
