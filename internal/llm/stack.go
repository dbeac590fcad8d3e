package llm

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// This file composes the middleware layers into the canonical stack:
//
//	Cache (+ singleflight) → [Resilience] → Batcher → backing model
//
// The cache is outermost so hits skip everything; its singleflight state
// sits above the batcher so concurrent identical requests collapse before
// grouping; the optional resilience layer (WithResilience — retries,
// circuit breaker, attempt timeouts) sits below the cache so cached
// answers keep serving through an outage, and above the batcher so a
// retried attempt rejoins its group, which it waits for inside its attempt;
// the batcher groups what remains per stage execution (batch.go) and sends
// a call of no stage alone. The stack counts usage at its own
// entry, above the cache, so Usage is true upstream spend: hit and
// follower responses carry zero Usage.

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
// addressable for stats and persistence. It accumulates the usage of the
// calls it answers; safe for concurrent use.
type Stack struct {
	cache   *Cache // entry point: the outermost layer
	batcher *Batcher

	mu     sync.Mutex
	usage  Usage // spend of calls that succeeded
	failed Usage // spend carried by calls that errored
}

// stackConfig collects construction options.
type stackConfig struct {
	cacheCapacity int
	resilience    func(Client) Client
}

// StackOption configures a Stack.
type StackOption func(*stackConfig)

// WithCacheCapacity bounds the response cache (default 4096 entries).
func WithCacheCapacity(n int) StackOption { return func(c *stackConfig) { c.cacheCapacity = n } }

// WithResilience inserts wrap between the cache and the batcher: below
// the cache (hits never touch a breaker — serving cached answers during
// an outage is the first line of graceful degradation) and above the
// batcher (a retried attempt rejoins its stage's group). The llm package
// stays dependency-free of the resilience implementation;
// internal/resilience provides the canonical wrapper.
func WithResilience(wrap func(Client) Client) StackOption {
	return func(c *stackConfig) { c.resilience = wrap }
}

// NewStack assembles the middleware pipeline around a backing client.
func NewStack(inner Client, opts ...StackOption) *Stack {
	cfg := stackConfig{cacheCapacity: 4096}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Stack{batcher: NewBatcher(inner, DefaultMaxBatch)}
	var client Client = s.batcher
	if cfg.resilience != nil {
		client = cfg.resilience(client)
	}
	s.cache = NewCache(client, cfg.cacheCapacity)
	return s
}

// Complete runs the request through the middleware pipeline and records
// its usage.
func (s *Stack) Complete(ctx context.Context, req Request) (Response, error) {
	resp, err := s.cache.Complete(ctx, req)
	s.record(resp.Usage, err)
	return resp, err
}

// CompleteGroup runs the group through the pipeline: the cache decides
// what of it goes upstream, and the layers beneath see one ordinary
// request. What that request cost is recorded as Complete records it.
func (s *Stack) CompleteGroup(ctx context.Context, g Group) ([]Response, error) {
	resps, err := s.cache.CompleteGroup(ctx, g)
	var spent Usage
	for _, r := range resps {
		spent.Add(r.Usage)
	}
	s.record(spent, err)
	return resps, err
}

// record adds one call's spend to the stack's usage. Spend carried by
// failed calls accumulates separately (FailedUsage): a retry storm against
// a flaky backend must not inflate the reported tokens of answers that
// were actually delivered.
func (s *Stack) record(spent Usage, err error) {
	s.mu.Lock()
	if err != nil {
		s.failed.Add(spent)
	} else {
		s.usage.Add(spent)
	}
	s.mu.Unlock()
}

// Usage returns the spend accumulated by successful calls.
func (s *Stack) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage
}

// FailedUsage returns the spend carried by calls that ultimately errored
// (partial batches, faults injected after tokens were burned).
func (s *Stack) FailedUsage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Name identifies the backing model.
func (s *Stack) Name() string { return s.batcher.Name() }

// CacheLayer returns the cache layer.
func (s *Stack) CacheLayer() *Cache { return s.cache }

// SaveCache persists the response cache to path.
func (s *Stack) SaveCache(path string) error { return s.cache.Save(path) }

// StackStats snapshots every layer's counters.
func (s *Stack) StackStats() StackStats {
	return StackStats{Cache: s.cache.Stats(), Flight: s.cache.FlightStats(), Batch: s.batcher.Stats()}
}

var _ GroupClient = (*Stack)(nil)
