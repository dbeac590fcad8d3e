package llm

import (
	"context"
	"errors"
	"sync"
)

// Request is one completion call.
type Request struct {
	// System is the system prompt (task framing).
	System string
	// Prompt is the user prompt, including any stuffed context.
	Prompt string
	// MaxTokens caps the completion length (0 = model default).
	MaxTokens int
	// Temperature is accepted for API fidelity; Sim is deterministic at
	// any temperature but uses it to scale its error knobs.
	Temperature float64
}

// Response is a completion result.
type Response struct {
	// Text is the completion.
	Text string
	// Refusal marks a model refusal (e.g. context poisoning, §7.2).
	Refusal bool
	// Usage records the cost of this single call. Responses served from
	// the middleware cache carry zero Usage (nothing was spent upstream).
	Usage Usage
	// FromCache marks a response served by the middleware cache rather
	// than the backing model.
	FromCache bool
}

// Usage tracks token accounting across calls.
type Usage struct {
	Calls            int
	PromptTokens     int
	CompletionTokens int
}

// Add accumulates other into u.
func (u *Usage) Add(other Usage) {
	u.Calls += other.Calls
	u.PromptTokens += other.PromptTokens
	u.CompletionTokens += other.CompletionTokens
}

// Sub returns the delta u − prev, for before/after snapshots around a
// pipeline run (mirrors StackStats.Sub).
func (u Usage) Sub(prev Usage) Usage {
	return Usage{
		Calls:            u.Calls - prev.Calls,
		PromptTokens:     u.PromptTokens - prev.PromptTokens,
		CompletionTokens: u.CompletionTokens - prev.CompletionTokens,
	}
}

// Total returns total tokens in + out.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Client is the minimal LLM interface the rest of the system consumes.
type Client interface {
	// Complete runs one completion.
	Complete(ctx context.Context, req Request) (Response, error)
	// Name identifies the backing model (for traces and reports).
	Name() string
}

// ErrTransient marks a retryable model failure (rate limit, timeout). The
// DocSet executor retries these.
var ErrTransient = errors.New("llm: transient failure")

// ErrContextTooLong is returned when a prompt exceeds the context window
// and the model is configured to reject rather than truncate.
var ErrContextTooLong = errors.New("llm: prompt exceeds context window")

// Meter wraps a Client and accumulates usage across calls; safe for
// concurrent use.
type Meter struct {
	inner  Client
	mu     sync.Mutex
	usage  Usage
	failed Usage
}

// NewMeter wraps client with a usage accumulator.
func NewMeter(client Client) *Meter { return &Meter{inner: client} }

// Complete forwards to the wrapped client and records usage. Spend
// carried by failed calls accumulates separately (FailedUsage): a retry
// storm against a flaky backend must not inflate the reported completion
// tokens of answers that were actually delivered.
func (m *Meter) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := m.inner.Complete(ctx, req)
	m.mu.Lock()
	if err != nil {
		m.failed.Add(resp.Usage)
	} else {
		m.usage.Add(resp.Usage)
	}
	m.mu.Unlock()
	return resp, err
}

// CompleteGroup forwards the group and records what its one upstream
// request (if any) cost, exactly as Complete would.
func (m *Meter) CompleteGroup(ctx context.Context, g Group) ([]Response, error) {
	resps, err := CompleteGroup(ctx, m.inner, g)
	var spent Usage
	for _, r := range resps {
		spent.Add(r.Usage)
	}
	m.mu.Lock()
	if err != nil {
		m.failed.Add(spent)
	} else {
		m.usage.Add(spent)
	}
	m.mu.Unlock()
	return resps, err
}

// Name returns the wrapped model's name.
func (m *Meter) Name() string { return m.inner.Name() }

// Inner returns the wrapped client (for middleware-stats discovery).
func (m *Meter) Inner() Client { return m.inner }

// Usage returns a snapshot of usage accumulated by successful calls.
func (m *Meter) Usage() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usage
}

// FailedUsage returns the spend carried by calls that ultimately errored
// (partial batches, faults injected after tokens were burned).
func (m *Meter) FailedUsage() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failed
}

// Reset clears accumulated usage (successful and failed).
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.usage = Usage{}
	m.failed = Usage{}
}

// Scripted is a test double that returns canned responses in order, then
// repeats the last one.
type Scripted struct {
	mu        sync.Mutex
	Responses []Response
	Errs      []error
	calls     int
	// Requests records every request for assertion.
	Requests []Request
}

// Complete returns the next scripted response.
func (s *Scripted) Complete(_ context.Context, req Request) (Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Requests = append(s.Requests, req)
	i := s.calls
	s.calls++
	if i < len(s.Errs) && s.Errs[i] != nil {
		return Response{}, s.Errs[i]
	}
	if len(s.Responses) == 0 {
		return Response{Text: ""}, nil
	}
	if i >= len(s.Responses) {
		i = len(s.Responses) - 1
	}
	r := s.Responses[i]
	r.Usage = Usage{Calls: 1, PromptTokens: CountTokens(req.Prompt), CompletionTokens: CountTokens(r.Text)}
	return r, nil
}

// Name identifies the scripted double.
func (s *Scripted) Name() string { return "scripted" }

// Calls returns how many completions have been requested.
func (s *Scripted) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}
