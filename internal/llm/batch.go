package llm

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the batching dispatcher, the third layer of the LLM
// call middleware. Per-document semantic operators issue many small,
// homogeneous completions; real model APIs amortize dispatch overhead when
// those are grouped into one batched call (the paper's batched
// extract/filter execution; UQE batches per-tuple predicates the same
// way). The Batcher coalesces concurrent Complete calls into grouped
// upstream dispatches bounded by batch size and a linger window.

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
	// SizeFlushes and LingerFlushes split dispatches by trigger.
	SizeFlushes, LingerFlushes int64
	// MaxSize is the largest batch dispatched.
	MaxSize int64
}

// Sub returns the stats accumulated since prev (MaxSize is carried over).
func (s BatchStats) Sub(prev BatchStats) BatchStats {
	return BatchStats{
		Batches:       s.Batches - prev.Batches,
		Requests:      s.Requests - prev.Requests,
		SizeFlushes:   s.SizeFlushes - prev.SizeFlushes,
		LingerFlushes: s.LingerFlushes - prev.LingerFlushes,
		MaxSize:       s.MaxSize,
	}
}

// batchResult delivers one request's outcome back to its waiter.
type batchResult struct {
	resp Response
	err  error
}

// pendingReq is one enqueued request awaiting dispatch.
type pendingReq struct {
	// ctx is the caller's context: dispatch answers a request whose caller
	// already gave up with ctx.Err() instead of sending it upstream.
	ctx  context.Context
	req  Request
	done chan batchResult // buffered(1): dispatch never blocks on waiters
}

// Batcher coalesces concurrent Complete calls into grouped upstream
// dispatches. A batch flushes when it reaches MaxBatch requests or when
// the oldest pending request has lingered for the linger window. A request
// arriving while no other call is in flight dispatches immediately, so
// sequential callers (e.g. Luna's planner) never pay the linger.
type Batcher struct {
	inner    Client
	maxBatch int
	linger   time.Duration

	inflight atomic.Int64 // callers currently inside Complete

	mu      sync.Mutex
	pending []*pendingReq
	timer   *time.Timer
	// gen invalidates linger timers whose Stop raced their firing: a
	// fired-but-blocked lingerFlush from batch N must not drain batch N+1.
	gen   uint64
	stats BatchStats
}

// BatcherOption configures a Batcher.
type BatcherOption func(*Batcher)

// DefaultMaxBatch is the batch width of a Batcher built without
// WithMaxBatch. DocSet sizes the window of model calls a stage keeps
// outstanding as a multiple of it.
const DefaultMaxBatch = 8

// DefaultLinger is how long an under-full batch waits for peers before
// flushing in a Batcher built without WithLinger.
const DefaultLinger = time.Millisecond

// WithMaxBatch bounds the batch size (default DefaultMaxBatch; 1 disables
// coalescing).
func WithMaxBatch(n int) BatcherOption {
	return func(b *Batcher) {
		if n > 0 {
			b.maxBatch = n
		}
	}
}

// WithLinger sets how long an under-full batch waits for peers before
// flushing (default DefaultLinger).
func WithLinger(d time.Duration) BatcherOption {
	return func(b *Batcher) {
		if d > 0 {
			b.linger = d
		}
	}
}

// NewBatcher wraps inner with a batching dispatcher.
func NewBatcher(inner Client, opts ...BatcherOption) *Batcher {
	b := &Batcher{inner: inner, maxBatch: DefaultMaxBatch, linger: DefaultLinger}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Complete enqueues the request and waits for its batch to be dispatched.
func (b *Batcher) Complete(ctx context.Context, req Request) (Response, error) {
	if b.maxBatch <= 1 {
		return b.inner.Complete(ctx, req)
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	p := &pendingReq{ctx: ctx, req: req, done: make(chan batchResult, 1)}

	b.mu.Lock()
	b.pending = append(b.pending, p)
	n := len(b.pending)
	switch {
	case n >= b.maxBatch:
		// Flush on size: this caller dispatches the full batch.
		batch := b.takeLocked()
		b.stats.SizeFlushes++
		b.mu.Unlock()
		b.dispatch(batch)
	case b.inflight.Load() == 1:
		// Sole caller: nobody else can join this batch, dispatch now.
		batch := b.takeLocked()
		b.mu.Unlock()
		b.dispatch(batch)
	case n == 1:
		// First of a concurrent group: arm the linger timer.
		gen := b.gen
		b.timer = time.AfterFunc(b.linger, func() { b.lingerFlush(gen) })
		b.mu.Unlock()
	default:
		b.mu.Unlock()
	}

	select {
	case r := <-p.done:
		return r.resp, r.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// takeLocked drains the pending queue, stops the linger timer, and bumps
// the generation so a stale fired timer becomes a no-op. Callers must hold
// b.mu.
func (b *Batcher) takeLocked() []*pendingReq {
	batch := b.pending
	b.pending = nil
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// lingerFlush fires when an under-full batch has waited out the linger.
func (b *Batcher) lingerFlush(gen uint64) {
	b.mu.Lock()
	if gen != b.gen {
		// This timer's batch was already flushed (by size or Flush) while
		// we waited for the lock; the pending queue belongs to a newer
		// batch.
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	if len(batch) > 0 {
		b.stats.LingerFlushes++
	}
	b.mu.Unlock()
	b.dispatch(batch)
}

// dispatch sends one batch upstream and fans results back to the waiters.
// Requests whose caller's context is already done are dropped first: a
// cancelled query that had a window of documents queued pays for none of
// the prompts it abandoned. The upstream call runs under a background
// context: the batch is shared by callers with independent contexts, and
// each waiter still honors its own cancellation while waiting.
func (b *Batcher) dispatch(batch []*pendingReq) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.done <- batchResult{err: err}
			continue
		}
		live = append(live, p)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	b.stats.Batches++
	b.stats.Requests += int64(len(batch))
	if int64(len(batch)) > b.stats.MaxSize {
		b.stats.MaxSize = int64(len(batch))
	}
	b.mu.Unlock()

	ctx := context.Background() //lint:allow ctxflow a flushed batch aggregates many callers' requests; no single caller's context may cancel the shared round-trip
	if bc, ok := b.inner.(BatchClient); ok && len(batch) > 1 {
		reqs := make([]Request, len(batch))
		for i, p := range batch {
			reqs[i] = p.req
		}
		resps, err := bc.CompleteBatch(ctx, reqs)
		if err == nil && len(resps) == len(batch) {
			for i, p := range batch {
				p.done <- batchResult{resp: resps[i]}
			}
			return
		}
		// Batch-level failure (e.g. one transient fault): degrade to
		// per-request dispatch so one poisoned request doesn't fail its
		// whole cohort and amplify the failure rate ~maxBatch-fold.
	}
	for _, p := range batch {
		resp, err := b.inner.Complete(ctx, p.req)
		p.done <- batchResult{resp: resp, err: err}
	}
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
