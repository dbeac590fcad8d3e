package llm

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// usageErrClient returns a response carrying usage together with an
// error — the shape of a fault injected after tokens were burned.
type usageErrClient struct {
	mu   sync.Mutex
	errs []error
	i    int
}

func (c *usageErrClient) Complete(_ context.Context, _ Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.i < len(c.errs) {
		err = c.errs[c.i]
	}
	c.i++
	return Response{Text: "x", Usage: Usage{Calls: 1, PromptTokens: 10, CompletionTokens: 5}}, err
}

func (c *usageErrClient) Name() string { return "usage-err" }

// TestMeterFailedUsage: spend carried by failed calls accumulates
// separately from delivered-answer spend, and Reset clears both.
func TestMeterFailedUsage(t *testing.T) {
	transient := errors.New("boom")
	m := NewMeter(&usageErrClient{errs: []error{nil, transient, transient, nil}})
	for i := 0; i < 4; i++ {
		_, _ = m.Complete(context.Background(), Request{Prompt: "p"})
	}
	if u := m.Usage(); u.Calls != 2 || u.Total() != 30 {
		t.Errorf("successful usage = %+v, want 2 calls / 30 tokens", u)
	}
	if f := m.FailedUsage(); f.Calls != 2 || f.Total() != 30 {
		t.Errorf("failed usage = %+v, want the 2 errored calls' spend", f)
	}
	m.Reset()
	if u, f := m.Usage(), m.FailedUsage(); u.Total() != 0 || f.Total() != 0 {
		t.Errorf("Reset left usage %+v / failed %+v", u, f)
	}
}

// TestCallClass pins the task-marker → class mapping the resilience
// middleware keys per-class timeout budgets on.
func TestCallClass(t *testing.T) {
	cases := []struct {
		prompt string
		want   string
	}{
		{TaskPlan + "\nhow many?", "plan"},
		{TaskExtract + "\nfields", "extract"},
		{TaskFilter + "\nkeep?", "filter"},
		{TaskSummarize + "\ndocs", "summarize"},
		{TaskAnswer + "\nquestion", "answer"},
		{TaskPlan, "plan"}, // marker with no body
		{"free-form prompt", "generic"},
		{"", "generic"},
		{"  " + TaskPlan + "\nindented marker is not a marker", "generic"},
	}
	for _, c := range cases {
		if got := CallClass(Request{Prompt: c.prompt}); got != c.want {
			t.Errorf("CallClass(%q) = %q, want %q", c.prompt, got, c.want)
		}
	}
}

// TestCachePurge: Purge empties residency but preserves counters, and the
// next lookup is a genuine miss.
func TestCachePurge(t *testing.T) {
	inner := &Scripted{Responses: []Response{{Text: "a"}, {Text: "b"}}}
	c := NewCache(inner)
	ctx := context.Background()
	req := Request{Prompt: "q"}
	if _, err := c.Complete(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(ctx, req); err != nil { // hit
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != 1 {
		t.Fatalf("stats before purge = %+v, want 1 hit", got)
	}
	if n := c.Purge(); n != 1 {
		t.Fatalf("Purge dropped %d entries, want 1", n)
	}
	if c.Len() != 0 {
		t.Fatalf("cache still holds %d entries after Purge", c.Len())
	}
	resp, err := c.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "b" {
		t.Fatalf("post-purge answer %q, want a fresh backend response", resp.Text)
	}
	if got := c.Stats(); got.Hits != 1 || got.Misses != 2 {
		t.Errorf("stats after purge = %+v; purge must keep counters and miss afresh", got)
	}
}

// countingWrap is a stand-in resilience layer that counts traversals.
type countingWrap struct {
	inner Client
	mu    sync.Mutex
	calls int
}

func (w *countingWrap) Complete(ctx context.Context, req Request) (Response, error) {
	w.mu.Lock()
	w.calls++
	w.mu.Unlock()
	return w.inner.Complete(ctx, req)
}
func (w *countingWrap) Name() string { return w.inner.Name() }

// TestStackResilienceOrder: WithResilience sits below the cache — a hit
// never traverses the resilience layer (cached answers keep serving
// through an outage) — and above the batcher, and StatsOf still finds the
// stack through an outer Meter.
func TestStackResilienceOrder(t *testing.T) {
	var wrap *countingWrap
	stack := NewStack(&Scripted{Responses: []Response{{Text: "ok"}}},
		WithResilience(func(inner Client) Client {
			wrap = &countingWrap{inner: inner}
			return wrap
		}))
	if wrap == nil {
		t.Fatal("WithResilience wrapper was never installed")
	}
	meter := NewMeter(stack)
	ctx := context.Background()
	req := Request{Prompt: "same question"}
	for i := 0; i < 3; i++ {
		if _, err := meter.Complete(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	wrap.mu.Lock()
	calls := wrap.calls
	wrap.mu.Unlock()
	if calls != 1 {
		t.Errorf("resilience layer saw %d calls for 1 miss + 2 hits, want 1 (hits must bypass it)", calls)
	}
	st, ok := StatsOf(meter)
	if !ok {
		t.Fatal("StatsOf failed to walk Meter → Stack")
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss", st.Cache)
	}
}
