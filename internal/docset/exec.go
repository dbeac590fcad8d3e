package docset

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
	"aryn/internal/resilience"
)

// envelope carries a document through the pipeline with a hierarchical
// sequence number. Sequences make output ordering deterministic no matter
// how workers interleave: results are re-sorted by lineage position, so a
// run with parallelism 1 and parallelism 32 produce identical output.
type envelope struct {
	seq []int32
	doc *docmodel.Document
}

func seqLess(a, b []int32) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func childSeq(parent []int32, i int) []int32 {
	out := make([]int32, len(parent)+1)
	copy(out, parent)
	out[len(parent)] = int32(i)
	return out
}

// stageKind selects the execution strategy for a stage.
type stageKind int

const (
	// mapKind stages process one document at a time (possibly emitting 0..N
	// documents) and run with per-stage worker parallelism.
	mapKind stageKind = iota
	// barrierKind stages need the whole upstream collection at once
	// (reduce, sort, limit) and run single-threaded.
	barrierKind
)

// stageSpec is the plan-time description of one operator.
type stageSpec struct {
	name string
	// tag is the logical plan-node ID this stage was compiled from (""
	// when the stage has no logical counterpart). Copied onto the stage's
	// NodeTrace so EXPLAIN ANALYZE can aggregate runtime by plan node.
	tag       string
	kind      stageKind
	mapFn     func(*Context, *docmodel.Document) ([]*docmodel.Document, error)
	barrierFn func(*Context, []*docmodel.Document) ([]*docmodel.Document, error)
	// barrierCtxFn is barrierFn for stages that run nested pipelines and
	// must honor the plan's cancellation/deadline (join's build side).
	// Takes precedence over barrierFn when set.
	barrierCtxFn func(context.Context, *Context, []*docmodel.Document) ([]*docmodel.Document, error)
	// questions are the predicates of an llmFilter stage, which accounts
	// for each in its NodeTrace (nil for every other stage).
	questions []string
	// callsModel marks map stages whose mapFn makes a model call per
	// document (Context.complete): they keep modelWindow documents in
	// flight instead of Parallelism, in a batch scope (see runMapStage).
	callsModel bool
	// mutates marks stages that may write to their input documents
	// (SetProperty, Text/Embedding assignment, user-supplied map
	// functions). Shared-source plans clone at the source only when some
	// stage carries this flag — the copy-on-write escape hatch that lets
	// pure-read pipelines flow zero-clone snapshots end to end.
	mutates bool
	// fresh marks stages whose outputs are newly created documents
	// sharing no mutable state with their inputs (aggregation barriers,
	// mergeChunks). A mutator downstream of a fresh stage only ever touches
	// those fresh documents, so it does not force a source clone.
	fresh bool
}

// sourceSpec produces the root documents of a plan.
type sourceSpec struct {
	name string
	// tag is the logical plan-node ID this source was compiled from (see
	// stageSpec.tag).
	tag  string
	emit func(ctx context.Context, ec *Context, yield func(*docmodel.Document) error) error
	// shared marks sources that yield documents owned by someone else
	// (index.Store snapshots, caller-held slices) rather than documents
	// created for this plan. Execute clones shared documents at the
	// source iff a downstream stage mutates.
	shared bool
}

// needsSourceClone reports whether Execute must copy documents as they
// leave the source: only when the source shares ownership AND some stage
// mutates its inputs before a fresh-document barrier replaces them.
func (ds *DocSet) needsSourceClone() bool {
	if !ds.source.shared {
		return false
	}
	for _, sp := range ds.stages {
		if sp.mutates {
			return true
		}
		if sp.fresh {
			return false // later mutators touch fresh documents only
		}
	}
	return false
}

// Execute runs the plan and returns the resulting documents (in
// deterministic order) along with the lineage trace.
func (ds *DocSet) Execute(ctx context.Context) ([]*docmodel.Document, *Trace, error) {
	return ds.ExecuteStream(ctx, nil)
}

// StreamSink observes documents as they clear the plan's final stage, in
// arrival order — the batches are previews, NOT the canonical result.
// The canonical, deterministically-ordered documents are the ones
// ExecuteStream returns; they are byte-identical to Execute's for the
// same plan. Sinks run on the collector goroutine: a slow sink
// backpressures the pipeline rather than buffering unboundedly.
type StreamSink func(docs []*docmodel.Document)

// ExecuteStream runs the plan like Execute while handing arrival-order
// batches of Context.StreamBatch documents to sink as they clear the
// final stage, so consumers (SSE responses, CLI progress) see results
// before the tail of the pipeline finishes. A nil sink is exactly
// Execute. On failure the tail batch is withheld — everything already
// delivered stands, and the returned partial documents keep the
// degraded-mode contract.
//
// It owns trace assembly: the skeleton is published to Context.TraceSink
// before execution starts (live progress), per-node errors are annotated
// after it settles.
func (ds *DocSet) ExecuteStream(ctx context.Context, sink StreamSink) ([]*docmodel.Document, *Trace, error) {
	start := wallclock()
	trace := &Trace{}
	traces := make([]*NodeTrace, 0, len(ds.stages)+1)
	srcTrace := newNodeTrace(ds.source.name, ds.source.tag)
	traces = append(traces, srcTrace)
	for _, sp := range ds.stages {
		traces = append(traces, newStageTrace(sp))
	}
	for _, nt := range traces {
		nt.epoch = start
	}
	trace.Nodes = traces
	if ds.ctx.TraceSink != nil {
		ds.ctx.TraceSink(trace)
	}

	// The plan's model stages open batch scopes of their own.
	cctx, cancel := context.WithCancel(llm.WithBatchScope(ctx, nil))
	defer cancel()

	chanCap := 2 * ds.ctx.Parallelism
	var wg sync.WaitGroup
	errs := make([]error, len(ds.stages)+1)

	// Source goroutine.
	srcOut := make(chan envelope, chanCap)
	cloneAtSource := ds.needsSourceClone()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(srcOut)
		// Busy spans cover the source's own work between yields — never
		// the time blocked handing documents to a backpressured consumer —
		// so EXPLAIN ANALYZE attributes downstream latency downstream.
		resumed := wallclock()
		yieldEnv := func(env envelope) error {
			if cloneAtSource {
				env.doc = env.doc.Clone()
			}
			atomic.AddInt64(&srcTrace.In, 1)
			srcTrace.noteSpan(resumed, wallclock(), 0)
			defer func() { resumed = wallclock() }()
			select {
			case srcOut <- env:
				atomic.AddInt64(&srcTrace.Out, 1)
				srcTrace.noteFirstOut()
				return nil
			case <-cctx.Done():
				return cctx.Err()
			}
		}
		i := 0
		err := ds.source.emit(cctx, ds.ctx.forStage(srcTrace), func(d *docmodel.Document) error {
			env := envelope{seq: []int32{int32(i)}, doc: d}
			i++
			return yieldEnv(env)
		})
		srcTrace.noteSpan(resumed, wallclock(), 0)
		if err != nil {
			errs[0] = err
			cancel()
		}
	}()

	// Stage goroutines.
	in := srcOut
	for i, sp := range ds.stages {
		out := make(chan envelope, chanCap)
		nt := traces[i+1]
		wg.Add(1)
		go func(i int, sp stageSpec, in <-chan envelope, out chan<- envelope) {
			defer wg.Done()
			defer close(out)
			var err error
			switch sp.kind {
			case mapKind:
				err = runMapStage(cctx, ds.ctx.forStage(nt), sp, nt, in, out)
			case barrierKind:
				err = runBarrierStage(cctx, ds.ctx.forStage(nt), sp, nt, in, out)
			default:
				err = fmt.Errorf("docset: unknown stage kind %d", sp.kind)
			}
			if err != nil {
				errs[i+1] = err
				cancel()
			}
		}(i, sp, in, out)
		in = out
	}

	// Collect on this goroutine, handing the sink a batch of arrivals every
	// StreamBatch documents: a slow sink blocks the last stage's bounded
	// channel, which is the pipeline's back-pressure.
	var collected []envelope
	delivered := 0
	batch := ds.ctx.streamBatchSize()
	last := traces[len(traces)-1]
	flush := func() {
		if sink == nil || delivered == len(collected) {
			return
		}
		docs := make([]*docmodel.Document, 0, len(collected)-delivered)
		for _, env := range collected[delivered:] {
			docs = append(docs, env.doc)
		}
		delivered = len(collected)
		atomic.AddInt64(&last.Batches, 1)
		sink(docs)
	}
	for env := range in {
		collected = append(collected, env)
		if sink != nil && len(collected)-delivered >= batch {
			flush()
		}
	}
	wg.Wait()
	trace.Wall = time.Since(start)

	// Report the first real (non-cancellation) error.
	var firstErr error
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		for _, e := range errs {
			if e != nil {
				firstErr = e
				break
			}
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}

	if firstErr == nil {
		flush()
	}
	sort.Slice(collected, func(i, j int) bool { return seqLess(collected[i].seq, collected[j].seq) })
	docs := make([]*docmodel.Document, len(collected))
	for i, env := range collected {
		docs[i] = env.doc
	}
	if firstErr != nil {
		// Annotate the trace with which operators actually failed
		// (collateral cancellations stay blank): callers serving under
		// degraded mode return partial results with per-node error
		// provenance instead of discarding completed work.
		for i, e := range errs {
			if e != nil && !errors.Is(e, context.Canceled) {
				traces[i].setErr(e.Error())
			}
		}
		return docs, trace, fmt.Errorf("docset: execute: %w", firstErr)
	}
	return docs, trace, nil
}

// modelWindow is how many documents a map stage that calls the model keeps
// in flight: enough to fill sixteen of the batcher's groups at once, so a
// stage over a whole corpus of up to 128 documents sends every group in one
// wave, and a larger one overlaps its round trips instead of running one
// group at a time.
const modelWindow = 16 * llm.DefaultMaxBatch

// runMapStage fans the input across workers, applying the map function
// with transient-failure retries. Two resources bound a stage, and they are
// not the same thing. Busy workers: up to Parallelism goroutines, each
// holding a slot of the query's budget (when there is one) while it
// computes on a document. Outstanding model calls: a stage that calls the
// model runs up to modelWindow goroutines instead, each computing only
// under a budget slot (the query's, or one of Parallelism slots of the
// stage's own) and giving it back for the round trip, so the window adds
// documents waiting on the model, never busy workers, and counts them in a
// batch scope (llm.BatchScope) in which the batcher groups the stage's cache
// misses; a stage over the benchmark's 103-report corpus puts all 13 of
// its groups upstream at once and pays one round trip. Output
// order does not depend on either bound: envelopes are re-sorted by
// sequence.
func runMapStage(ctx context.Context, ec *Context, sp stageSpec, nt *NodeTrace, in <-chan envelope, out chan<- envelope) error {
	workers := ec.Parallelism
	if workers < 1 {
		workers = 1
	}
	budget := ec.budget
	var scope *llm.BatchScope
	if sp.callsModel {
		if budget == nil {
			budget = newWorkerBudget(workers)
		}
		workers = modelWindow
		scope = new(llm.BatchScope)
		ctx = llm.WithBatchScope(ctx, scope)
	}
	var wg sync.WaitGroup
	errOnce := sync.Once{}
	var stageErr error
	fail := func(err error) {
		errOnce.Do(func() { stageErr = err })
	}

	// Workers start on demand, up to the bound: a worker that takes a
	// document while no other is waiting for one starts the next. The
	// stage drains its input exactly as a fixed pool would, but one fed a
	// handful of documents, or whose calls are all cache hits, does not
	// pay for a window of goroutines that never see a document.
	var started, waiting atomic.Int32
	var work func()
	spawn := func() {
		scope.Enter() // before it runs, so the scope never counts it idle
		wg.Add(1)
		go work()
	}
	work = func() {
		defer wg.Done()
		defer scope.Leave()
		slot := &workerSlot{budget: budget, done: ctx.Done()}
		wec := *ec
		wec.slot = slot
		for {
			waiting.Add(1)
			env, ok := <-in
			lastWaiting := waiting.Add(-1) == 0
			if !ok || ctx.Err() != nil {
				return
			}
			if lastWaiting {
				if started.Add(1) <= int32(workers) {
					spawn()
				} else {
					started.Add(-1)
				}
			}
			atomic.AddInt64(&nt.In, 1)
			// The budget slot is held for exactly the busy span —
			// never across channel sends — so concurrent branches
			// share the per-query worker budget without deadlock.
			if !slot.take() {
				return
			}
			t0 := wallclock()
			results, err := applyWithRetry(ctx, &wec, sp.mapFn, env.doc, nt)
			nt.noteSpan(t0, wallclock(), slot.queued)
			slot.queued = 0
			slot.give()
			if err != nil {
				fail(fmt.Errorf("%s: %w", sp.name, err))
				return
			}
			for j, d := range results {
				outEnv := envelope{seq: childSeq(env.seq, j), doc: d}
				select {
				case out <- outEnv:
					atomic.AddInt64(&nt.Out, 1)
					nt.noteFirstOut()
				case <-ctx.Done():
					return
				}
			}
		}
	}
	started.Store(1)
	spawn()
	wg.Wait()
	return stageErr
}

// retryBudget is how many times a transient failure is retried per
// document.
const retryBudget = 2

// applyWithRetry runs one document through a map function, retrying
// transient failures up to retryBudget times. Retries pace through the
// context's resilience.Retrier (full-jitter backoff, honoring Retry-After
// hints and the plan deadline), and the FaultHook gets a chance to fail
// the attempt first. A slow model call is bounded beneath this loop, by
// the per-class attempt timeouts of the resilience middleware the serving
// stack installs (core.Config.Resilience). Backoff waits accumulate in the
// trace node so EXPLAIN ANALYZE separates "stalled retrying" from "busy".
func applyWithRetry(ctx context.Context, ec *Context, fn func(*Context, *docmodel.Document) ([]*docmodel.Document, error), doc *docmodel.Document, nt *NodeTrace) ([]*docmodel.Document, error) {
	var lastErr error
	for attempt := 0; attempt <= retryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("retries cut short: %w", lastErr)
			}
			return nil, err
		}
		if attempt > 0 && ec.Backoff != nil {
			hint, _ := resilience.RetryAfterHint(lastErr)
			waited, err := ec.Backoff.Wait(ctx, attempt, hint)
			atomic.AddInt64(&nt.BackoffNS, int64(waited))
			if err != nil {
				return nil, fmt.Errorf("retries cut short: %w", lastErr)
			}
		}
		if ec.FaultHook != nil {
			if err := ec.FaultHook(nt.Name); err != nil {
				lastErr = err
				if !errors.Is(err, llm.ErrTransient) {
					return nil, err
				}
				atomic.AddInt64(&nt.Retries, 1)
				continue
			}
		}
		results, err := fn(ec.withCallCtx(ctx), doc)
		if err == nil {
			return results, nil
		}
		if ctx.Err() != nil {
			// The plan itself was canceled or timed out mid-attempt: not an
			// operator failure, and not retryable.
			return nil, ctx.Err()
		}
		lastErr = err
		if !errors.Is(err, llm.ErrTransient) {
			return nil, err
		}
		atomic.AddInt64(&nt.Retries, 1)
	}
	return nil, fmt.Errorf("retries exhausted: %w", lastErr)
}

// runBarrierStage gathers the whole input (in deterministic order), applies
// the stage function once, and re-emits.
func runBarrierStage(ctx context.Context, ec *Context, sp stageSpec, nt *NodeTrace, in <-chan envelope, out chan<- envelope) error {
	var collected []envelope
	for env := range in {
		atomic.AddInt64(&nt.In, 1)
		collected = append(collected, env)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sort.Slice(collected, func(i, j int) bool { return seqLess(collected[i].seq, collected[j].seq) })
	docs := make([]*docmodel.Document, len(collected))
	for i, env := range collected {
		docs[i] = env.doc
	}
	t0 := wallclock()
	var results []*docmodel.Document
	var err error
	// Barriers run one shot under the plan context directly (no retries:
	// a reduce over the whole collection is not retryable work).
	bec := ec.withCallCtx(ctx)
	if sp.barrierCtxFn != nil {
		results, err = sp.barrierCtxFn(ctx, bec, docs)
	} else {
		results, err = sp.barrierFn(bec, docs)
	}
	nt.noteSpan(t0, wallclock(), 0)
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	for i, d := range results {
		select {
		case out <- envelope{seq: []int32{int32(i)}, doc: d}:
			atomic.AddInt64(&nt.Out, 1)
			nt.noteFirstOut()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
