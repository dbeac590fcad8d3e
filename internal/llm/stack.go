package llm

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// This file composes the middleware layers into the canonical stack:
//
//	Cache (+ singleflight) → [Resilience] → Batcher → backing model
//
// The cache is outermost so hits skip everything; its singleflight state
// sits above the batcher so concurrent identical requests collapse before
// grouping; the optional resilience layer (WithResilience — retries,
// circuit breaker, attempt timeouts) sits below the cache so cached
// answers keep serving through an outage, and above the batcher so
// retried attempts re-enter batching; the batcher coalesces what remains
// into grouped upstream dispatches. An outer Meter (not part of the
// stack) keeps reporting true upstream spend because hit/follower
// responses carry zero Usage.

// StackStats aggregates the counters of every middleware layer.
type StackStats struct {
	Cache  CacheStats
	Flight FlightStats
	Batch  BatchStats
}

// Sub returns the stats accumulated since prev.
func (s StackStats) Sub(prev StackStats) StackStats {
	return StackStats{
		Cache:  s.Cache.Sub(prev.Cache),
		Flight: s.Flight.Sub(prev.Flight),
		Batch:  s.Batch.Sub(prev.Batch),
	}
}

// String renders a one-line summary for traces and CLI reports.
func (s StackStats) String() string {
	parts := []string{}
	lookups := s.Cache.Hits + s.Cache.Misses
	if lookups > 0 {
		parts = append(parts, fmt.Sprintf("cache %d/%d hits (%d tokens saved)",
			s.Cache.Hits, lookups, s.Cache.Saved.Total()))
	}
	if s.Flight.Shared > 0 {
		parts = append(parts, fmt.Sprintf("singleflight %d shared", s.Flight.Shared))
	}
	if s.Batch.Batches > 0 {
		parts = append(parts, fmt.Sprintf("%d requests in %d batches (max %d)",
			s.Batch.Requests, s.Batch.Batches, s.Batch.MaxSize))
	}
	if len(parts) == 0 {
		return "no middleware activity"
	}
	return strings.Join(parts, ", ")
}

// Stack is the assembled middleware pipeline. It satisfies Client, so it
// drops into any place a model is consumed; individual layers stay
// addressable for stats and persistence.
type Stack struct {
	client  Client // entry point (outermost enabled layer)
	cache   *Cache
	batcher *Batcher
	inner   Client
}

// stackConfig collects construction options.
type stackConfig struct {
	disableCache  bool
	cacheCapacity int
	cachePath     string
	maxBatch      int
	linger        time.Duration
	resilience    func(Client) Client
}

// StackOption configures a Stack.
type StackOption func(*stackConfig)

// WithoutCache disables the response cache layer, and with it the
// singleflight deduplication: every request goes upstream.
func WithoutCache() StackOption { return func(c *stackConfig) { c.disableCache = true } }

// WithCacheCapacity bounds the response cache (default 4096 entries).
func WithCacheCapacity(n int) StackOption { return func(c *stackConfig) { c.cacheCapacity = n } }

// WithCachePersistence warm-starts the cache from path when the file
// exists; call Stack.SaveCache to write it back.
func WithCachePersistence(path string) StackOption {
	return func(c *stackConfig) { c.cachePath = path }
}

// WithBatching sets the dispatcher's batch bound and linger window.
// maxBatch 1 disables coalescing (every call forwards directly).
func WithBatching(maxBatch int, linger time.Duration) StackOption {
	return func(c *stackConfig) {
		c.maxBatch = maxBatch
		c.linger = linger
	}
}

// WithResilience inserts wrap between the cache and the batcher: below
// the cache (hits never touch a breaker — serving cached answers during
// an outage is the first line of graceful degradation) and above the
// batcher (retried attempts re-enter batching). The llm package stays
// dependency-free of the resilience implementation; internal/resilience
// provides the canonical wrapper.
func WithResilience(wrap func(Client) Client) StackOption {
	return func(c *stackConfig) { c.resilience = wrap }
}

// NewStack assembles the middleware pipeline around a backing client.
func NewStack(inner Client, opts ...StackOption) *Stack {
	cfg := stackConfig{cacheCapacity: 4096, maxBatch: DefaultMaxBatch, linger: DefaultLinger}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Stack{inner: inner}
	client := inner
	if cfg.maxBatch > 1 {
		s.batcher = NewBatcher(client, WithMaxBatch(cfg.maxBatch), WithLinger(cfg.linger))
		client = s.batcher
	}
	if cfg.resilience != nil {
		client = cfg.resilience(client)
	}
	if !cfg.disableCache {
		s.cache = NewCache(client, WithCapacity(cfg.cacheCapacity))
		if cfg.cachePath != "" {
			// Best-effort warm start: a missing or unreadable snapshot just
			// means a cold cache.
			_ = s.cache.Load(cfg.cachePath)
		}
		client = s.cache
	}
	s.client = client
	return s
}

// Complete runs the request through the middleware pipeline.
func (s *Stack) Complete(ctx context.Context, req Request) (Response, error) {
	return s.client.Complete(ctx, req)
}

// CompleteGroup runs the group through the pipeline: the cache decides
// what of it goes upstream, and the layers beneath see one ordinary
// request.
func (s *Stack) CompleteGroup(ctx context.Context, g Group) ([]Response, error) {
	return CompleteGroup(ctx, s.client, g)
}

// Name identifies the backing model.
func (s *Stack) Name() string { return s.inner.Name() }

// Cache returns the cache layer (nil when disabled).
func (s *Stack) CacheLayer() *Cache { return s.cache }

// SaveCache persists the response cache to path (no-op when disabled).
func (s *Stack) SaveCache(path string) error {
	if s.cache == nil {
		return nil
	}
	return s.cache.Save(path)
}

// StackStats snapshots every layer's counters.
func (s *Stack) StackStats() StackStats {
	var st StackStats
	if s.cache != nil {
		st.Cache = s.cache.Stats()
		st.Flight = s.cache.FlightStats()
	}
	if s.batcher != nil {
		st.Batch = s.batcher.Stats()
	}
	return st
}

// statsProvider is implemented by the Stack (and anything else that can
// report middleware stats).
type statsProvider interface{ StackStats() StackStats }

// wrapper is implemented by middleware that exposes its wrapped client.
type wrapper interface{ Inner() Client }

// StatsOf walks a chain of wrapped clients (a Meter around a Stack) and
// returns the first middleware stats snapshot found.
func StatsOf(c Client) (StackStats, bool) {
	for c != nil {
		if sp, ok := c.(statsProvider); ok {
			return sp.StackStats(), true
		}
		w, ok := c.(wrapper)
		if !ok {
			break
		}
		c = w.Inner()
	}
	return StackStats{}, false
}

var _ GroupClient = (*Stack)(nil)
