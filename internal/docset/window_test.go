package docset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
)

// gauge tracks how many goroutines are inside a section at once and the
// highest count seen.
type gauge struct{ now, peak atomic.Int64 }

func (g *gauge) enter() int64 {
	n := g.now.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return n
		}
	}
}

func (g *gauge) leave() { g.now.Add(-1) }

// slowModel is a BatchClient with a fixed round trip per dispatch that
// answers every prompt "yes". It counts dispatches and prompts served and
// gauges the requests and the dispatches outstanding upstream.
type slowModel struct {
	rtt         time.Duration
	dispatches  atomic.Int64
	served      atomic.Int64
	elapsed     atomic.Int64 // nanoseconds dispatches spent upstream
	outstanding gauge
	upstream    gauge // dispatches, where outstanding counts requests
	// gather, when positive, holds every dispatch upstream until that many
	// requests are outstanding at once, then closes met: a deterministic
	// proof that a stage really gets that many calls in flight. A dispatch
	// held 10 s goes on, so a stage that falls short shows its peak.
	gather int64
	met    chan struct{}
	once   sync.Once
}

func (m *slowModel) Name() string { return "slow" }

func (m *slowModel) wait(ctx context.Context, n int) error {
	m.dispatches.Add(1)
	m.upstream.enter()
	defer m.upstream.leave()
	defer func(t0 time.Time) { m.elapsed.Add(int64(time.Since(t0))) }(time.Now())
	for i := 0; i < n; i++ {
		defer m.outstanding.leave()
		if m.outstanding.enter() == m.gather {
			m.once.Do(func() { close(m.met) })
		}
	}
	if m.gather > 0 {
		select {
		case <-m.met:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
		}
	}
	select {
	case <-time.After(m.rtt):
		m.served.Add(int64(n))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *slowModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := m.wait(ctx, 1); err != nil {
		return llm.Response{}, err
	}
	return llm.Response{Text: "yes"}, nil
}

func (m *slowModel) CompleteBatch(ctx context.Context, reqs []llm.Request) ([]llm.Response, error) {
	if err := m.wait(ctx, len(reqs)); err != nil {
		return nil, err
	}
	resps := make([]llm.Response, len(reqs))
	for i := range resps {
		resps[i] = llm.Response{Text: "yes"}
	}
	return resps, nil
}

// A model stage keeps a window of documents in flight, not Parallelism:
// 64 documents at Parallelism 8 are one round of eight full batches, where
// a stage bounded by its workers runs eight rounds of one. The stage forms
// its batches itself, so their number is exact.
func TestModelStageOverlapsRoundTrips(t *testing.T) {
	const rtt = 20 * time.Millisecond
	model := &slowModel{rtt: rtt}
	batcher := llm.NewBatcher(model, llm.DefaultMaxBatch)
	ec := NewContext(WithLLM(batcher), WithParallelism(8))
	start := time.Now()
	docs, trace, err := FromDocuments(ec, scheduleDocs(64)).LLMFilter("anything?").Execute(context.Background())
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 64 {
		t.Fatalf("kept %d docs, want 64", len(docs))
	}
	if wall >= 3*rtt {
		t.Errorf("64 documents took %s, want under 3 round trips of %s (one batch at a time takes 8)", wall, rtt)
	}
	if n := model.dispatches.Load(); n != 8 {
		t.Errorf("%d dispatches for 64 documents, want 8 full batches", n)
	}
	if nt := trace.Nodes[1]; nt.LLMCalls != 64 {
		t.Errorf("stage recorded %d model calls, want 64", nt.LLMCalls)
	}
}

// A model stage over a whole corpus is one wave: the 103 reports of the
// benchmark's corpus fit the window, so all ⌈103/8⌉ = 13 groups are upstream
// at once and none waits for another's round trip. The model holds every
// dispatch until all 103 requests are outstanding, which proves it; the
// dispatch count is the batcher's, unchanged by the window.
func TestModelStageSendsOneWave(t *testing.T) {
	const n = 103
	model := &slowModel{gather: n, met: make(chan struct{})}
	ec := NewContext(WithLLM(llm.NewStack(model)), WithParallelism(8))
	docs, _, err := FromDocuments(ec, scheduleDocs(n)).LLMFilter("anything?").Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != n {
		t.Fatalf("kept %d docs, want %d", len(docs), n)
	}
	if p := model.upstream.peak.Load(); p != 13 {
		t.Errorf("peak dispatches upstream at once = %d, want all 13 groups", p)
	}
	if d := model.dispatches.Load(); d != 13 {
		t.Errorf("%d dispatches for %d documents, want 13", d, n)
	}
}

// The two resources are bounded separately: computing on documents (prompt
// building, response parsing) never takes more than the query's
// Parallelism budget slots, while the calls outstanding reach the window
// and stop there.
func TestModelStageBoundsWorkersAndWindowSeparately(t *testing.T) {
	const parallelism = 4
	model := &slowModel{gather: modelWindow, met: make(chan struct{})}
	qec := NewContext(WithLLM(model), WithParallelism(parallelism)).QueryScope()

	var cpu gauge
	compute := func() {
		cpu.enter()
		time.Sleep(50 * time.Microsecond)
		cpu.leave()
	}
	ds := FromDocuments(qec, scheduleDocs(3*modelWindow)).with(stageSpec{
		name:       "gaugedModelStage",
		kind:       mapKind,
		callsModel: true,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			compute() // prompt building
			if _, err := ec.complete(llm.Request{Prompt: d.ID}); err != nil {
				return nil, err
			}
			compute() // response parsing
			return []*docmodel.Document{d}, nil
		},
	})
	docs, _, err := ds.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3*modelWindow {
		t.Fatalf("got %d docs, want %d", len(docs), 3*modelWindow)
	}
	if p := cpu.peak.Load(); p > parallelism {
		t.Errorf("peak concurrent compute sections = %d, want <= Parallelism %d", p, parallelism)
	}
	if p := model.outstanding.peak.Load(); p != modelWindow {
		t.Errorf("peak outstanding model calls = %d, want exactly the window %d", p, modelWindow)
	}
	if held := len(qec.budget.slots); held != 0 {
		t.Errorf("%d budget slots still held after the run", held)
	}
}

// Every stage that does not call the model keeps exactly Parallelism
// workers.
func TestPlainMapStageRunsParallelismWorkers(t *testing.T) {
	const parallelism = 4
	ec := NewContext(WithParallelism(parallelism))
	var running gauge
	full := make(chan struct{})
	var once sync.Once
	docs, _, err := FromDocuments(ec, scheduleDocs(10*parallelism)).
		Map("gauged", func(d *docmodel.Document) (*docmodel.Document, error) {
			defer running.leave()
			if running.enter() >= parallelism {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
				time.Sleep(100 * time.Microsecond) // let a surplus worker show
				return d, nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("fewer than Parallelism workers ran")
			}
		}).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10*parallelism {
		t.Fatalf("got %d docs, want %d", len(docs), 10*parallelism)
	}
	if p := running.peak.Load(); p != parallelism {
		t.Errorf("peak concurrent map calls = %d, want exactly Parallelism %d", p, parallelism)
	}
}

// Model stages are as deterministic as any other: the same plan at
// Parallelism 1 and 8, with and without a query budget, over a model that
// answers out of order, emits byte-identical documents.
func TestModelStagesDeterministicAcrossParallelismAndBudget(t *testing.T) {
	docs := func() []*docmodel.Document {
		out := make([]*docmodel.Document, 150)
		for i := range out {
			state := []string{"Mesa, Arizona", "Hilo, Hawaii", "Reno, Nevada"}[i%3]
			out[i] = ntsbishDoc(fmt.Sprintf("N%03d", i), state, fmt.Sprintf("Flight %d met a gusting crosswind and windshear in fog; the engine lost power.", i))
		}
		return out
	}
	run := func(parallelism int, scoped bool) string {
		sim := llm.NewSim(1, llm.WithLatency(200*time.Microsecond))
		ec := NewContext(WithLLM(llm.NewStack(sim)), WithParallelism(parallelism))
		if scoped {
			ec = ec.QueryScope()
		}
		out, _, err := FromDocuments(ec, docs()).
			LLMExtract([]llm.FieldSpec{{Name: "us_state", Type: "string"}}).
			LLMFilter("Did the engine lose power?").
			LLMFilter("Was weather a factor?").
			LLMReduceByKey("us_state", "Summarize the accidents").
			Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("plan produced no documents")
		}
		return docJSON(t, out)
	}
	want := run(1, false)
	for _, c := range []struct {
		parallelism int
		scoped      bool
	}{{8, false}, {1, true}, {8, true}} {
		if got := run(c.parallelism, c.scoped); got != want {
			t.Errorf("parallelism %d, query budget %v: output differs from the serial run", c.parallelism, c.scoped)
		}
	}
}

// The time a document spends queued for a worker slot after its model call
// returned is not busy time: with one slot and a window of documents
// returning together, nearly all of them queue, and the stage's busy total
// must still be about what the calls and the parsing themselves took.
func TestBusySpanExcludesQueueingForSlot(t *testing.T) {
	const (
		n     = modelWindow
		rtt   = 5 * time.Millisecond
		parse = time.Millisecond
	)
	model := &slowModel{rtt: rtt}
	qec := NewContext(WithLLM(model), WithParallelism(1)).QueryScope()
	var parsing atomic.Int64 // measured, like model.elapsed: a loaded box stretches a sleep
	_, trace, err := FromDocuments(qec, scheduleDocs(n)).with(stageSpec{
		name:       "parseHeavy",
		kind:       mapKind,
		callsModel: true,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			if _, err := ec.complete(llm.Request{Prompt: d.ID}); err != nil {
				return nil, err
			}
			t0 := time.Now()
			time.Sleep(parse) // serialized by the single slot
			parsing.Add(int64(time.Since(t0)))
			return []*docmodel.Document{d}, nil
		},
	}).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All n calls return together after one round trip, then parse one at
	// a time: the k-th document queues k × parse for the slot.
	const queued = n * (n - 1) / 2 * parse
	busy := trace.Nodes[1].Duration
	work := time.Duration(model.elapsed.Load() + parsing.Load())
	if busy < work*9/10 {
		t.Errorf("busy = %s, want at least the %s of calls and parsing", busy, work)
	}
	if busy > work+queued/2 {
		t.Errorf("busy = %s for %s of calls and parsing: the ≈ %s queued for the worker slot is counted as busy", busy, work, queued)
	}
}

// goroutineDump is the stack of every goroutine, for leak reports.
func goroutineDump() string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	return buf.String()
}

// Cancelling a query while a model stage has its whole window in flight:
// Execute returns promptly, every budget slot is handed back, and no
// goroutine of the run is left behind.
func TestCancelMidModelStageReleasesBudgetAndGoroutines(t *testing.T) {
	const rtt = 50 * time.Millisecond
	model := &slowModel{rtt: rtt, gather: modelWindow, met: make(chan struct{})}
	stack := llm.NewStack(model)
	qec := NewContext(WithLLM(stack), WithParallelism(8)).QueryScope()

	runtime.GC()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-model.met // the full window is upstream
		cancel()
	}()
	docs := make([]*docmodel.Document, 4*modelWindow)
	for i := range docs {
		docs[i] = docmodel.New(fmt.Sprintf("c%03d", i))
		docs[i].Text = fmt.Sprintf("report %d: engine fire", i) // distinct prompts: no singleflight sharing
	}
	start := time.Now()
	_, _, err := FromDocuments(qec, docs).LLMFilter("engine fire?").Execute(ctx)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute error = %v, want context.Canceled", err)
	}
	// Prompt: about the one round trip already upstream when the cancel
	// landed, not the four windows the input holds.
	if took > 3*rtt {
		t.Errorf("cancelled Execute took %s, want under %s", took, 3*rtt)
	}
	if held := len(qec.budget.slots); held != 0 {
		t.Errorf("%d budget slots still held after a cancelled run", held)
	}
	if n := model.served.Load(); n > modelWindow {
		t.Errorf("model served %d prompts, want at most the window of %d in flight at the cancel", n, modelWindow)
	}
	// Batches already upstream finish under the batcher's own context;
	// give their goroutines a few round trips to drain.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(rtt / 5)
	}
	if after := runtime.NumGoroutine(); after > before {
		dump := goroutineDump()
		if strings.Contains(dump, "aryn/internal/docset.") || strings.Contains(dump, "aryn/internal/llm.") {
			t.Errorf("goroutines: %d before, %d after the cancelled run:\n%s", before, after, dump)
		}
	}
}

// Cancelling a query while its model stage holds an under-full group — the
// stage's input still open, so the group waits for more — sends nothing
// upstream and leaves no goroutine, and no waiter in the group, behind.
func TestCancelWhileStageHoldsPartialGroup(t *testing.T) {
	model := &slowModel{}
	stack := llm.NewStack(model)
	// No query budget: the stalled stage's workers would hold all of it.
	ec := NewContext(WithLLM(stack), WithParallelism(4))

	runtime.GC()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const held = 3
	docs := scheduleDocs(2 * llm.DefaultMaxBatch)
	// The first three documents pass; the rest stall until the cancel, so
	// the filter stage's input stays open with three requests grouped.
	stall := FromDocuments(ec, docs).with(stageSpec{
		name: "stall",
		kind: mapKind,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			if d.ID >= docs[held].ID {
				<-ec.CallContext().Done()
				return nil, ec.CallContext().Err()
			}
			return []*docmodel.Document{d}, nil
		},
	})
	go func() {
		for stack.StackStats().Cache.Misses < held {
			runtime.Gosched()
		}
		cancel()
	}()
	_, _, err := stall.LLMFilter("engine fire?").Execute(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute error = %v, want context.Canceled", err)
	}
	if n := model.dispatches.Load(); n != 0 {
		t.Errorf("%d dispatches after a cancel with the group under-full, want 0", n)
	}
	if st := stack.StackStats(); st.Batch.Batches != 0 || st.Cache.Misses != held {
		t.Errorf("stack stats = %+v, want %d misses and nothing dispatched", st, held)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		dump := goroutineDump()
		if strings.Contains(dump, "aryn/internal/docset.") || strings.Contains(dump, "aryn/internal/llm.") {
			t.Errorf("goroutines: %d before, %d after the cancelled run:\n%s", before, after, dump)
		}
	}
}
