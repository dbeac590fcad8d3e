package llm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// batchCountingClient adds a recording CompleteBatch to countingClient.
type batchCountingClient struct {
	countingClient
	mu         sync.Mutex
	batchSizes []int
}

func (c *batchCountingClient) CompleteBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	c.mu.Lock()
	c.batchSizes = append(c.batchSizes, len(reqs))
	c.mu.Unlock()
	resps := make([]Response, len(reqs))
	for i, r := range reqs {
		resp, err := c.countingClient.Complete(ctx, r)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			resp.Usage.Calls = 0
		}
		resps[i] = resp
	}
	return resps, nil
}

func (c *batchCountingClient) sizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.batchSizes...)
}

// scoped is one stage of a test: a batch scope and a context carrying it.
type scoped struct {
	s   *BatchScope
	ctx context.Context
}

func newScoped() scoped {
	s := new(BatchScope)
	return scoped{s, WithBatchScope(context.Background(), s)}
}

// workers asks c for each prompt from a worker of the stage of its own.
// Every worker is counted in before any of them asks, as a stage counts in
// the worker it starts, and out before its outcome is sent.
func (st scoped) workers(t *testing.T, ctx context.Context, c Client, prompts ...string) <-chan outcome {
	t.Helper()
	out := make(chan outcome, len(prompts))
	for range prompts {
		st.s.Enter()
	}
	for _, p := range prompts {
		go func() {
			resp, err := c.Complete(ctx, Request{Prompt: p})
			st.s.Leave()
			out <- outcome{p, resp, err}
		}()
	}
	return out
}

type outcome struct {
	prompt string
	resp   Response
	err    error
}

// waitOpen yields until the scope's open group holds n requests.
func (st scoped) waitOpen(n int) {
	for {
		st.s.mu.Lock()
		got := len(st.s.open)
		st.s.mu.Unlock()
		if got == n {
			return
		}
		runtime.Gosched()
	}
}

// echoed checks that every outcome is its own prompt's echo.
func echoed(t *testing.T, outs <-chan outcome, n int) {
	t.Helper()
	for range n {
		o := <-outs
		if want := "echo:" + o.prompt; o.err != nil || o.resp.Text != want {
			t.Errorf("%q got (%q, %v), want %q (fan-back misrouted)", o.prompt, o.resp.Text, o.err, want)
		}
	}
}

// A full group goes upstream as one dispatch while the stage could still
// add to it: a worker waiting for input keeps it busy.
func TestBatcherFlushOnSize(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, 4)
	st := newScoped()
	st.s.Enter() // a worker waiting for input, all test long
	echoed(t, st.workers(t, st.ctx, b, "req0", "req1", "req2", "req3"), 4)
	if got := inner.sizes(); len(got) != 1 || got[0] != 4 {
		t.Errorf("upstream batch sizes %v, want one batch of 4", got)
	}
	if s := b.Stats(); s.SizeFlushes != 1 || s.Batches != 1 || s.LingerFlushes != 0 {
		t.Errorf("stats = %+v, want one size flush", s)
	}
}

// An under-full group waits while any worker of its stage is busy, and
// goes upstream the moment the last one stops: nothing else can join it.
func TestBatcherFlushWhenStageIdle(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, 8)
	st := newScoped()
	st.s.Enter() // the worker that will find the input closed
	outs := st.workers(t, st.ctx, b, "idle0", "idle1")
	st.waitOpen(2)
	if n := inner.calls.Load(); n != 0 {
		t.Fatalf("%d upstream calls while a worker could still add to the group", n)
	}
	st.s.Leave()
	echoed(t, outs, 2)
	if got := inner.sizes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("upstream batch sizes %v, want one batch of 2", got)
	}
	if s := b.Stats(); s.Batches != 1 || s.SizeFlushes != 0 || s.LingerFlushes != 0 {
		t.Errorf("stats = %+v, want one dispatch, not a full one", s)
	}
}

// A request with no scope — the planner, a summary, a chat turn — goes
// upstream at once, alone.
func TestBatcherUnscopedDispatchesAlone(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, 8)
	resp, err := b.Complete(context.Background(), Request{Prompt: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "echo:solo" {
		t.Errorf("got %q", resp.Text)
	}
	if st := b.Stats(); st.Batches != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v, want one batch of one request", st)
	}
}

func TestBatcherFallbackWithoutBatchClient(t *testing.T) {
	inner := &countingClient{} // no CompleteBatch
	b := NewBatcher(inner, 4)
	st := newScoped()
	echoed(t, st.workers(t, st.ctx, b, "fb0", "fb1", "fb2", "fb3"), 4)
	if got := inner.calls.Load(); got != 4 {
		t.Errorf("upstream called %d times, want 4", got)
	}
}

// A Batcher of width 1 coalesces nothing: each request of a stage goes
// upstream alone as soon as it arrives.
func TestBatcherDisabledPassthrough(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, 1)
	st := newScoped()
	st.s.Enter() // a worker that could still add a request
	echoed(t, st.workers(t, st.ctx, b, "direct0", "direct1"), 2)
	if got := inner.calls.Load(); got != 2 || len(inner.sizes()) != 0 {
		t.Errorf("upstream called %d times, batches %v, want 2 single calls", got, inner.sizes())
	}
	if s := b.Stats(); s.Batches != 2 || s.MaxSize != 1 {
		t.Errorf("stats = %+v, want 2 dispatches of one", s)
	}
}

func TestSimCompleteBatchMatchesSolo(t *testing.T) {
	sim := NewSim(7)
	reqs := []Request{
		{Prompt: TaskFilter + "\nQuestion: engine problems?\nDocument:\nengine failure on approach"},
		{Prompt: "tell me about airplanes"},
		{Prompt: TaskSummarize + "\nInstruction: summarize\n- item one\n- item two"},
	}
	batched, err := sim.CompleteBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for i, req := range reqs {
		solo, err := NewSim(7).Complete(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i].Text != solo.Text {
			t.Errorf("request %d: batched %q != solo %q", i, batched[i].Text, solo.Text)
		}
		calls += batched[i].Usage.Calls
	}
	if calls != 1 {
		t.Errorf("batch accounted %d calls, want 1 (grouped dispatch)", calls)
	}
}

// faultyBatchClient fails every grouped dispatch but serves per-request
// calls, modelling a batch poisoned by one transient fault.
type faultyBatchClient struct {
	countingClient
	batchCalls atomic.Int64
}

func (c *faultyBatchClient) CompleteBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	c.batchCalls.Add(1)
	return nil, ErrTransient
}

func TestBatcherDegradesToSinglesOnBatchError(t *testing.T) {
	inner := &faultyBatchClient{}
	b := NewBatcher(inner, 4)
	st := newScoped()
	echoed(t, st.workers(t, st.ctx, b, "d0", "d1", "d2", "d3"), 4)
	if got := inner.batchCalls.Load(); got != 1 {
		t.Fatalf("grouped dispatch attempted %d times, want 1", got)
	}
}

// A request whose caller gave up while it waited in the open group leaves
// the group and is never sent: it costs no upstream request and no tokens,
// the live requests grouped with it are served as usual, and the scope
// holds no waiter afterwards.
func TestBatcherDropsCancelledWaiters(t *testing.T) {
	scripted := &Scripted{Responses: []Response{{Text: "answer"}}}
	// An unbatched stack between the batcher and the model counts what is
	// sent upstream.
	upstream := NewStack(scripted)
	b := NewBatcher(upstream, 8)
	st := newScoped()
	st.s.Enter() // holds the group open until the test leaves

	cancelled, cancel := context.WithCancel(st.ctx)
	gone := st.workers(t, cancelled, b, "abandoned one", "abandoned two")
	live := st.workers(t, st.ctx, b, "live")
	st.waitOpen(3)

	cancel()
	for range 2 {
		if o := <-gone; !errors.Is(o.err, context.Canceled) {
			t.Errorf("cancelled waiter got (%q, %v), want context.Canceled", o.resp.Text, o.err)
		}
	}
	st.waitOpen(1)
	st.s.Leave()
	if o := <-live; o.err != nil || o.resp.Text != "answer" {
		t.Errorf("live waiter got (%q, %v), want the model's answer", o.resp.Text, o.err)
	}

	if got := len(scripted.Requests); got != 1 || scripted.Requests[0].Prompt != "live" {
		t.Errorf("upstream saw %d requests %v, want only the live one", got, scripted.Requests)
	}
	want := Usage{Calls: 1, PromptTokens: CountTokens("live"), CompletionTokens: CountTokens("answer")}
	if got := upstream.Usage(); got != want {
		t.Errorf("upstream usage = %+v, want the live request's alone: %+v", got, want)
	}
	if s := b.Stats(); s.Requests != 1 || s.Batches != 1 {
		t.Errorf("stats = %+v, want the live request in one dispatch", s)
	}
	st.s.mu.Lock()
	defer st.s.mu.Unlock()
	if st.s.busy != 0 || len(st.s.open) != 0 {
		t.Errorf("scope left with %d busy workers and %d waiters, want none", st.s.busy, len(st.s.open))
	}
}

// Two workers of one stage asking the same prompt: the second follows the
// first's flight, and is idle while it does, so the first's group goes
// upstream once no other worker is busy.
func TestBatcherFollowerInScopeIsIdle(t *testing.T) {
	inner := &batchCountingClient{}
	stack := NewStack(inner)
	st := newScoped()
	echoed(t, st.workers(t, st.ctx, stack, "same", "same"), 2)
	if n := inner.calls.Load(); n != 1 {
		t.Errorf("upstream called %d times, want 1", n)
	}
}

// A caller following a request that waits in another stage's open group
// sends that group upstream: the stage holding it may be waiting, through
// its input, on the follower's own.
func TestBatcherFollowerHurriesLeadersGroup(t *testing.T) {
	inner := &batchCountingClient{}
	stack := NewStack(inner)
	leader := newScoped()
	leader.s.Enter() // a worker waiting for input that never comes
	defer leader.s.Leave()
	led := leader.workers(t, leader.ctx, stack, "shared", "other")
	leader.waitOpen(2)

	follower := newScoped()
	echoed(t, follower.workers(t, follower.ctx, stack, "shared"), 1)
	echoed(t, led, 2)
	if got := inner.sizes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("upstream batch sizes %v, want the leader's group of 2", got)
	}
	// An unscoped caller (a planner) hurries a group the same way.
	led = leader.workers(t, leader.ctx, stack, "asked again")
	leader.waitOpen(1)
	if _, err := stack.Complete(context.Background(), Request{Prompt: "asked again"}); err != nil {
		t.Fatal(err)
	}
	echoed(t, led, 1)
}
