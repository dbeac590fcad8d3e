package llm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStackCacheShortCircuitsAllLayers(t *testing.T) {
	inner := &batchCountingClient{}
	stack := NewStack(inner)
	ctx := context.Background()

	req := Request{Prompt: "repeated workload"}
	if _, err := stack.Complete(ctx, req); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		resp, err := stack.Complete(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.FromCache {
			t.Fatalf("repeat %d missed the cache", i)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("upstream called %d times for 11 identical requests, want 1", got)
	}
	if u := stack.Usage(); u.Calls != 1 {
		t.Errorf("metered %d calls, want 1 (hits are free)", u.Calls)
	}
	st := stack.StackStats()
	if st.Cache.Hits != 10 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 10/1", st.Cache.Hits, st.Cache.Misses)
	}
}

func TestStackConcurrentMixedWorkload(t *testing.T) {
	inner := &batchCountingClient{}
	stack := NewStack(inner)
	stage := newScoped()

	// 8 workers of one stage × 40 requests over 20 distinct prompts: heavy
	// overlap both concurrently (singleflight) and over time (cache).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		stage.s.Enter()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer stage.s.Leave()
			for i := 0; i < 40; i++ {
				req := Request{Prompt: fmt.Sprintf("prompt-%d", (w*7+i)%20)}
				resp, err := stack.Complete(stage.ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if want := "echo:" + req.Prompt; resp.Text != want {
					t.Errorf("got %q, want %q", resp.Text, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// 20 distinct prompts → at most 20 upstream completions, no matter how
	// the 320 requests interleaved.
	if got := inner.calls.Load(); got > 20 {
		t.Errorf("upstream completed %d distinct calls, want <= 20", got)
	}
	st := stack.StackStats()
	if st.Cache.Hits+st.Flight.Shared < 300 {
		t.Errorf("only %d of 300 duplicate requests were deduplicated (%s)",
			st.Cache.Hits+st.Flight.Shared, st)
	}
}

// gapClient steers two identical requests into the one interleaving that
// used to pay upstream twice: the first call upstream is held until
// release closes, and a request that consults the inner client after two
// lookups have missed the cache is parked until left closes. (The only
// thing a request can want from the inner client between its miss and its
// own call upstream is the model name, to key a layer below the cache.)
type gapClient struct {
	countingClient
	stack   *Stack
	release chan struct{}
	left    chan struct{}
}

func (g *gapClient) Complete(ctx context.Context, req Request) (Response, error) {
	<-g.release
	return g.countingClient.Complete(ctx, req)
}

func (g *gapClient) Name() string {
	if g.stack.StackStats().Cache.Misses >= 2 {
		<-g.left
	}
	return "gap"
}

// A request that misses the cache while an identical call is upstream,
// and gets no further until that call has returned and left the flight,
// must still be served by it: the key is in flight or resident at every
// instant in between, never neither.
func TestStackNoGapBetweenCacheAndFlight(t *testing.T) {
	inner := &gapClient{release: make(chan struct{}), left: make(chan struct{})}
	stack := NewStack(inner)
	inner.stack = stack
	ctx := context.Background()
	req := Request{Prompt: "asked twice"}
	waitMisses := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for stack.StackStats().Cache.Misses < n {
			if time.Now().After(deadline) {
				t.Fatalf("cache saw %d misses, want %d", stack.StackStats().Cache.Misses, n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	complete := func(done chan<- error) {
		_, err := stack.Complete(ctx, req)
		done <- err
	}

	first, second := make(chan error, 1), make(chan error, 1)
	go complete(first)
	waitMisses(1)
	go complete(second)
	waitMisses(2) // the second request has missed while the first is upstream
	close(inner.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	close(inner.left)
	if err := <-second; err != nil {
		t.Fatal(err)
	}

	if got := inner.calls.Load(); got != 1 {
		t.Errorf("upstream called %d times for two identical requests, want 1", got)
	}
	if st := stack.StackStats(); st.Flight.Leads != 1 || st.Cache.Hits+st.Flight.Shared != 1 {
		t.Errorf("stats = %+v, want one lead and one hit or follower", st)
	}
}

// A stack always has its cache and its batcher; only resilience is
// optional (TestStackResilienceOrder). A request with no batch scope is a
// cache miss and then one dispatch of its own.
func TestStackLayerToggles(t *testing.T) {
	stack := NewStack(&countingClient{})
	if stack.CacheLayer() == nil {
		t.Fatal("stack built without its cache layer")
	}
	if _, err := stack.Complete(context.Background(), Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if st := stack.StackStats(); st.Cache.Misses != 1 || st.Batch.Requests != 1 || st.Batch.Batches != 1 {
		t.Errorf("want one cache miss and one dispatch of one request, got %+v", st)
	}
}

func TestStackDeterminismWithSim(t *testing.T) {
	// The middleware must be behaviour-preserving: a stacked Sim and a bare
	// Sim answer identically, and batched/unbatched runs match.
	prompts := []string{
		TaskFilter + "\nQuestion: weather related?\nDocument:\nheavy crosswind during landing",
		TaskSummarize + "\nInstruction: key causes\n- engine\n- fuel",
		"free form question about aviation",
	}
	stacked := NewStack(NewSim(42))
	for _, p := range prompts {
		want, err := NewSim(42).Complete(context.Background(), Request{Prompt: p})
		if err != nil {
			t.Fatal(err)
		}
		got, err := stacked.Complete(context.Background(), Request{Prompt: p})
		if err != nil {
			t.Fatal(err)
		}
		if got.Text != want.Text {
			t.Errorf("stacked sim diverged on %q: %q != %q", p[:20], got.Text, want.Text)
		}
	}
}

func TestStackStatsString(t *testing.T) {
	var empty StackStats
	if s := empty.String(); s != "no middleware activity" {
		t.Errorf("empty stats rendered %q", s)
	}
	busy := StackStats{
		Cache:  CacheStats{Hits: 3, Misses: 1, Saved: Usage{PromptTokens: 90, CompletionTokens: 10}},
		Flight: FlightStats{Leads: 1, Shared: 2},
		Batch:  BatchStats{Batches: 2, Requests: 9, MaxSize: 5},
	}
	s := busy.String()
	for _, want := range []string{"cache 3/4 hits", "100 tokens saved", "singleflight 2 shared", "9 requests in 2 batches (max 5)"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats string %q missing %q", s, want)
		}
	}
}

// TestStackStatsSimBusy: the stack reports the Sim's busy time, the wall
// time it spent answering with its modelled round trips left out — above
// zero, and far below what the round trips themselves took.
func TestStackStatsSimBusy(t *testing.T) {
	const latency = 20 * time.Millisecond
	stack := NewStack(NewSim(7, WithLatency(latency)))
	ctx := context.Background()
	before := stack.StackStats()
	doc := strings.Repeat("The engine lost power on climb-out. A fire broke out in the cabin.\n", 40)
	for _, q := range []string{"Did the engine lose power?", "Was there a fire?", "Did birds strike the aircraft?"} {
		if _, err := stack.Complete(ctx, Request{Prompt: FilterPrompt(q, "NTSB-7", doc)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stack.Complete(ctx, Request{Prompt: ExtractPrompt([]FieldSpec{{Name: "cause", Type: "string"}}, doc)}); err != nil {
		t.Fatal(err)
	}
	st := stack.StackStats().Sub(before)
	if st.Batch.Batches != 4 {
		t.Fatalf("%d dispatches, want 4", st.Batch.Batches)
	}
	if roundTrips := time.Duration(st.Batch.Batches) * latency; st.SimBusy <= 0 || st.SimBusy >= roundTrips/4 {
		t.Errorf("sim busy %v over %d dispatches of %v round trip, want above 0 and under %v", st.SimBusy, st.Batch.Batches, latency, roundTrips/4)
	}
	if s := st.String(); !strings.Contains(s, "sim busy") {
		t.Errorf("stats string %q does not report the sim's busy time", s)
	}
	// A backend that does not time itself reports none.
	if busy := NewStack(&batchCountingClient{}).StackStats().SimBusy; busy != 0 {
		t.Errorf("a backend without busy time reports %v", busy)
	}
}
