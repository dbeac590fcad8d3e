package llm

import (
	"context"
	"slices"
	"sync"
)

// This file implements the batching dispatcher, the lowest layer of the LLM
// call middleware. The paper batches its per-document extract and filter
// calls, as UQE batches per-tuple predicates, by construction: the operator
// that owns the documents forms the batches. So here a stage that calls the
// model opens a BatchScope on its call context, and its requests that the
// cache and singleflight could not answer form the scope's open group,
// which goes upstream as one dispatch when full or when the stage can add
// no more to it. A request with no scope (the planner, a summary, a chat
// turn) goes at once, alone. No clock takes part: a single client makes
// ⌈misses/8⌉ dispatches per stage.

// BatchClient is the optional upstream interface for grouped completions.
// When the wrapped client implements it, a whole batch is dispatched as
// one upstream call; otherwise the Batcher falls back to per-request
// forwarding (still in arrival order, preserving test-double determinism).
type BatchClient interface {
	CompleteBatch(ctx context.Context, reqs []Request) ([]Response, error)
}

// BatchStats is a snapshot of batching counters.
type BatchStats struct {
	// Batches counts upstream dispatches.
	Batches int64
	// Requests counts requests that flowed through the batcher.
	Requests int64
	// SizeFlushes counts dispatches of a full group. LingerFlushes is
	// always 0 (no group waits on a clock), kept for its readers.
	SizeFlushes, LingerFlushes int64
	// MaxSize is the largest batch dispatched.
	MaxSize int64
}

// Sub returns the stats accumulated since prev (MaxSize is carried over).
func (s BatchStats) Sub(prev BatchStats) BatchStats {
	return BatchStats{
		Batches:     s.Batches - prev.Batches,
		Requests:    s.Requests - prev.Requests,
		SizeFlushes: s.SizeFlushes - prev.SizeFlushes,
		MaxSize:     s.MaxSize,
	}
}

// batchResult delivers one request's outcome back to its waiter.
type batchResult struct {
	resp Response
	err  error
}

// pendingReq is one request of a scope's group.
type pendingReq struct {
	// ctx is the caller's context: dispatch answers a request whose caller
	// already gave up with ctx.Err() instead of sending it upstream.
	ctx  context.Context
	req  Request
	done chan batchResult // buffered(1): dispatch never blocks on waiters
}

// BatchScope is one stage execution's batching state. The stage counts its
// workers in before they start (Enter) and out as they exit (Leave). A
// worker is idle while its request waits in the open group or upstream, or
// follows an identical request's flight, and busy otherwise — computing,
// waiting for input or in retry backoff — since it may yet add a request.
// Once none is busy the open group goes upstream as it stands. A nil
// *BatchScope is no scope.
type BatchScope struct {
	mu   sync.Mutex
	busy int
	// urgent counts callers outside the scope that follow one of its
	// requests; their stage may be this one's input, so none may wait.
	urgent int
	b      *Batcher // the Batcher the open group goes through
	open   []*pendingReq
}

type batchScopeKey struct{}

// WithBatchScope returns ctx carrying s; a nil s hides any scope ctx
// carries.
func WithBatchScope(ctx context.Context, s *BatchScope) context.Context {
	return context.WithValue(ctx, batchScopeKey{}, s)
}

func scopeOf(ctx context.Context) *BatchScope {
	s, _ := ctx.Value(batchScopeKey{}).(*BatchScope)
	return s
}

// Enter counts one more busy worker in the scope.
func (s *BatchScope) Enter() { s.shift(1, 0) }

// Leave counts a busy worker out of the scope.
func (s *BatchScope) Leave() { s.shift(-1, 0) }

// shift adds to the scope's busy and urgent counts and sends the open
// group upstream if it is now due.
func (s *BatchScope) shift(busy, urgent int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.busy += busy
	s.urgent += urgent
	b, batch := s.dueLocked(false)
	s.mu.Unlock()
	b.dispatch(s, batch)
}

// join makes p's worker idle and adds p to the open group, returning what
// is due. A stage has one model client, so its requests reach one Batcher.
func (s *BatchScope) join(b *Batcher, p *pendingReq) (*Batcher, []*pendingReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	s.b = b
	s.open = append(s.open, p)
	return s.dueLocked(len(s.open) >= b.maxBatch)
}

// dueLocked takes the open group if it is full, no busy worker can add to
// it or an outside caller waits on it. Callers hold s.mu.
func (s *BatchScope) dueLocked(full bool) (*Batcher, []*pendingReq) {
	if len(s.open) == 0 || !(full || s.busy == 0 || s.urgent > 0) {
		return nil, nil
	}
	b, batch := s.b, s.open
	s.b, s.open = nil, nil
	return b, batch
}

// withdraw takes p, whose caller stopped waiting, out of the open group if
// it is still there, and counts its worker busy again; a dispatched p's
// worker is counted busy when its result is handed over.
func (s *BatchScope) withdraw(p *pendingReq) {
	s.mu.Lock()
	if i := slices.Index(s.open, p); i >= 0 {
		s.open = slices.Delete(s.open, i, i+1)
		s.busy++
	}
	s.mu.Unlock()
}

// follow waits, as a follower, for the flight fc leads: idle in its own
// scope meanwhile, and hurrying the leader's scope when that is another.
func follow(ctx context.Context, fc *flightCall) error {
	own := scopeOf(ctx)
	if fc.scope != own {
		fc.scope.shift(0, 1)
		defer fc.scope.shift(0, -1)
	}
	own.shift(-1, 0)
	defer own.shift(1, 0)
	select {
	case <-fc.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Batcher sends a scope's groups upstream, one dispatch each, and a
// request with no scope alone, at once.
type Batcher struct {
	inner    Client
	maxBatch int

	mu    sync.Mutex
	stats BatchStats
}

// DefaultMaxBatch is the stack's batch width. DocSet sizes the window of
// model calls a stage keeps outstanding as a multiple of it.
const DefaultMaxBatch = 8

// NewBatcher wraps inner with a batching dispatcher that sends at most
// maxBatch requests in one dispatch.
func NewBatcher(inner Client, maxBatch int) *Batcher {
	return &Batcher{inner: inner, maxBatch: maxBatch}
}

// Complete joins a scoped request to its scope's open group, or sends one
// with no scope at once, and waits for its answer.
func (b *Batcher) Complete(ctx context.Context, req Request) (Response, error) {
	p := &pendingReq{ctx: ctx, req: req, done: make(chan batchResult, 1)}
	s := scopeOf(ctx)
	if s == nil {
		b.dispatch(nil, []*pendingReq{p})
	} else {
		due, batch := s.join(b, p)
		due.dispatch(s, batch)
	}
	select {
	case r := <-p.done:
		return r.resp, r.err
	case <-ctx.Done():
		if s != nil {
			s.withdraw(p)
		}
		return Response{}, ctx.Err()
	}
}

// dispatch sends one group of s upstream and hands each waiter its result,
// counting the group's workers busy again before any of them wakes. A nil
// b sends nothing.
func (b *Batcher) dispatch(s *BatchScope, batch []*pendingReq) {
	if b == nil {
		return
	}
	results := b.send(batch)
	s.shift(len(batch), 0)
	for i, p := range batch {
		p.done <- results[i]
	}
}

// send makes the upstream calls for a group, returning one result per
// request. Requests whose caller's context is already done are dropped
// first: a cancelled query that had documents queued pays for none of the
// prompts it abandoned. The upstream call runs under a background context:
// the group is shared by callers with independent contexts, and each
// waiter still honors its own cancellation while waiting.
func (b *Batcher) send(batch []*pendingReq) []batchResult {
	results := make([]batchResult, len(batch))
	var live []int
	for i, p := range batch {
		if results[i].err = p.ctx.Err(); results[i].err == nil {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return results
	}
	b.mu.Lock()
	b.stats.Batches++
	b.stats.Requests += int64(len(live))
	if len(batch) >= b.maxBatch {
		b.stats.SizeFlushes++
	}
	b.stats.MaxSize = max(b.stats.MaxSize, int64(len(live)))
	b.mu.Unlock()

	ctx := context.Background() //lint:allow ctxflow a dispatched group aggregates many callers' requests; no single caller's context may cancel the shared round-trip
	if bc, ok := b.inner.(BatchClient); ok && len(live) > 1 {
		reqs := make([]Request, len(live))
		for j, i := range live {
			reqs[j] = batch[i].req
		}
		resps, err := bc.CompleteBatch(ctx, reqs)
		if err == nil && len(resps) == len(live) {
			for j, i := range live {
				results[i].resp = resps[j]
			}
			return results
		}
		// Batch-level failure (e.g. one transient fault): degrade to
		// per-request dispatch so one poisoned request doesn't fail its
		// whole cohort and amplify the failure rate ~maxBatch-fold.
	}
	for _, i := range live {
		results[i].resp, results[i].err = b.inner.Complete(ctx, batch[i].req)
	}
	return results
}

// Name identifies the wrapped model.
func (b *Batcher) Name() string { return b.inner.Name() }

// Stats returns a snapshot of the batching counters.
func (b *Batcher) Stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

var _ Client = (*Batcher)(nil)
