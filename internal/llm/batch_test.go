package llm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// occupy keeps one slow request in flight so subsequent callers see
// concurrency and coalesce instead of taking the sole-caller fast path.
func occupy(t *testing.T, b *Batcher, delay time.Duration) (release func()) {
	t.Helper()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(started)
		if _, err := b.Complete(context.Background(), Request{Prompt: "occupier"}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	time.Sleep(delay)
	return func() { <-done }
}

func TestBatcherFlushOnSize(t *testing.T) {
	inner := &batchCountingClient{countingClient: countingClient{delay: 150 * time.Millisecond}}
	// Linger far beyond the test horizon: only a size flush can deliver.
	b := NewBatcher(inner, WithMaxBatch(4), WithLinger(time.Hour))
	release := occupy(t, b, 30*time.Millisecond)

	var wg sync.WaitGroup
	texts := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("req%d", i)})
			if err != nil {
				t.Error(err)
				return
			}
			texts[i] = resp.Text
		}(i)
	}
	wg.Wait()
	release()

	for i, text := range texts {
		if want := fmt.Sprintf("echo:req%d", i); text != want {
			t.Errorf("request %d got %q, want %q (fan-back misrouted)", i, text, want)
		}
	}
	found := false
	for _, s := range inner.sizes() {
		if s == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("upstream batch sizes %v, want one batch of 4", inner.sizes())
	}
	if st := b.Stats(); st.SizeFlushes != 1 {
		t.Errorf("size flushes = %d, want 1", st.SizeFlushes)
	}
}

func TestBatcherFlushOnLinger(t *testing.T) {
	inner := &batchCountingClient{countingClient: countingClient{delay: 150 * time.Millisecond}}
	b := NewBatcher(inner, WithMaxBatch(8), WithLinger(30*time.Millisecond))
	release := occupy(t, b, 30*time.Millisecond)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("linger%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	release()

	// The pair is under the size bound, so only the linger timer flushed it.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("under-full batch returned in %v, before the linger window", elapsed)
	}
	if st := b.Stats(); st.LingerFlushes < 1 {
		t.Errorf("linger flushes = %d, want >= 1", st.LingerFlushes)
	}
	found := false
	for _, s := range inner.sizes() {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("upstream batch sizes %v, want one batch of 2", inner.sizes())
	}
}

func TestBatcherSoleCallerSkipsLinger(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, WithMaxBatch(8), WithLinger(time.Hour))
	start := time.Now()
	resp, err := b.Complete(context.Background(), Request{Prompt: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "echo:solo" {
		t.Errorf("got %q", resp.Text)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sole caller waited %v — must dispatch immediately", elapsed)
	}
	if st := b.Stats(); st.Batches != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v, want one batch of one request", st)
	}
}

func TestBatcherFallbackWithoutBatchClient(t *testing.T) {
	inner := &countingClient{delay: 100 * time.Millisecond} // no CompleteBatch
	b := NewBatcher(inner, WithMaxBatch(4), WithLinger(time.Hour))
	release := occupy(t, b, 20*time.Millisecond)

	var wg sync.WaitGroup
	texts := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("fb%d", i)})
			if err != nil {
				t.Error(err)
				return
			}
			texts[i] = resp.Text
		}(i)
	}
	wg.Wait()
	release()
	for i, text := range texts {
		if want := fmt.Sprintf("echo:fb%d", i); text != want {
			t.Errorf("request %d got %q, want %q", i, text, want)
		}
	}
}

func TestBatcherDisabledPassthrough(t *testing.T) {
	inner := &batchCountingClient{}
	b := NewBatcher(inner, WithMaxBatch(1))
	if _, err := b.Complete(context.Background(), Request{Prompt: "direct"}); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Batches != 0 {
		t.Errorf("passthrough must not batch, stats = %+v", st)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("upstream called %d times, want 1", got)
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
	inner := &faultyBatchClient{countingClient: countingClient{delay: 50 * time.Millisecond}}
	b := NewBatcher(inner, WithMaxBatch(4), WithLinger(time.Hour))
	release := occupy(t, b, 20*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := b.Complete(context.Background(), Request{Prompt: fmt.Sprintf("d%d", i)})
			if err != nil {
				t.Errorf("request %d failed with its whole cohort: %v", i, err)
				return
			}
			if want := fmt.Sprintf("echo:d%d", i); resp.Text != want {
				t.Errorf("request %d got %q, want %q", i, resp.Text, want)
			}
		}(i)
	}
	wg.Wait()
	release()
	if got := inner.batchCalls.Load(); got < 1 {
		t.Fatal("grouped dispatch was never attempted")
	}
}

// gatedClient holds the prompt "occupier" upstream until gate closes, so a
// test can keep one call in flight while others queue behind it.
type gatedClient struct {
	Client
	gate chan struct{}
}

func (g gatedClient) Complete(ctx context.Context, req Request) (Response, error) {
	if req.Prompt == "occupier" {
		<-g.gate
	}
	return g.Client.Complete(ctx, req)
}

// A request whose caller gave up before its batch was taken is answered
// with the caller's error and never sent: it costs no upstream request and
// no tokens, and the live requests batched with it are served as usual.
func TestBatcherDropsCancelledWaiters(t *testing.T) {
	scripted := &Scripted{Responses: []Response{{Text: "answer"}}}
	// An unbatched stack between the batcher and the model counts what is
	// sent upstream.
	upstream := NewStack(scripted, WithBatching(1, 0))
	gate := make(chan struct{})
	// Only the test dispatches the queued requests: no size or linger flush.
	b := NewBatcher(gatedClient{Client: upstream, gate: gate}, WithMaxBatch(8), WithLinger(time.Hour))

	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		if _, err := b.Complete(context.Background(), Request{Prompt: "occupier"}); err != nil {
			t.Error(err)
		}
	}()
	for b.Stats().Batches == 0 { // the occupier is upstream, inside Complete
		time.Sleep(time.Millisecond)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	type outcome struct {
		resp Response
		err  error
	}
	call := func(ctx context.Context, prompt string) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			resp, err := b.Complete(ctx, Request{Prompt: prompt})
			ch <- outcome{resp, err}
		}()
		return ch
	}
	gone1 := call(cancelled, "abandoned one")
	live := call(context.Background(), "live")
	gone2 := call(cancelled, "abandoned two")
	for queued := 0; queued < 3; {
		time.Sleep(time.Millisecond)
		b.mu.Lock()
		queued = len(b.pending)
		b.mu.Unlock()
	}

	cancel()
	for _, ch := range []<-chan outcome{gone1, gone2} {
		if o := <-ch; !errors.Is(o.err, context.Canceled) {
			t.Errorf("cancelled waiter got (%q, %v), want context.Canceled", o.resp.Text, o.err)
		}
	}
	// Dispatch what is queued, as a size or linger flush would.
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	b.dispatch(batch)
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
	if st := b.Stats(); st.Requests != 2 || st.Batches != 2 {
		t.Errorf("stats = %+v, want 2 requests in 2 dispatches (occupier, live)", st)
	}

	close(gate)
	<-occupied
}
