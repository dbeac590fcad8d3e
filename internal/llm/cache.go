package llm

import (
	"compress/gzip"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"aryn/internal/statefile"
)

// This file implements the content-addressed response cache, the first
// layer of the LLM call middleware. Per-document semantic operators issue
// the same prompt whenever the same document flows through the same plan
// node — across retries, repeated queries, and conversation follow-ups —
// so memoizing on (model, request) content removes the dominant cost of
// re-execution (UQE §4; "Accurate and Efficient Document Analytics with
// LLMs" makes the same observation).
//
// The same layer is the singleflight deduplication: DocSet map stages
// run with worker parallelism, so the same prompt is routinely in flight
// on several workers at once (duplicate accident reports in the NTSB
// corpus, or a fan-out query re-extracting the same chunk). A key is
// absent, in flight, or resident, and all three are read and changed
// under one lock, so a prompt goes upstream once however its requests
// interleave: a successful call's response becomes resident in the
// critical section that ends its flight.
//
// The unit the cache stores is the fact — one request, one answer — and
// the unit it sends upstream may be larger: a Group's missing members
// travel as one packed request whose reply is split back into one entry
// per member (CompleteGroup). Complete is the group of one.

// Key is the content address of one completion call: a SHA-256 over the
// model identity and every request field that affects the completion.
func Key(model string, req Request) string {
	h := sha256.New()
	var buf [8]byte
	writePart := func(s string) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writePart(model)
	writePart(req.System)
	writePart(req.Prompt)
	binary.BigEndian.PutUint64(buf[:], uint64(req.MaxTokens))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(req.Temperature))
	h.Write(buf[:])
	return string(h.Sum(nil))
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses int64
	// Evictions counts entries dropped by the LRU policy.
	Evictions int64
	// Entries is the current resident entry count.
	Entries int
	// Saved accumulates the usage the cached responses cost when first
	// computed — i.e. the spend avoided by serving them from cache.
	Saved Usage
}

// Sub returns the stats accumulated since prev.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		Entries:   s.Entries,
		Saved: Usage{
			Calls:            s.Saved.Calls - prev.Saved.Calls,
			PromptTokens:     s.Saved.PromptTokens - prev.Saved.PromptTokens,
			CompletionTokens: s.Saved.CompletionTokens - prev.Saved.CompletionTokens,
		},
	}
}

// FlightStats is a snapshot of deduplication counters.
type FlightStats struct {
	// Leads counts calls that actually went upstream.
	Leads int64
	// Shared counts calls that piggybacked on an in-flight leader.
	Shared int64
}

// Sub returns the stats accumulated since prev.
func (s FlightStats) Sub(prev FlightStats) FlightStats {
	return FlightStats{Leads: s.Leads - prev.Leads, Shared: s.Shared - prev.Shared}
}

// Cache is a content-addressed LRU response cache wrapped around a Client,
// with singleflight deduplication of the misses: concurrent requests with
// the same content address issue one upstream call and share the result.
// Successful completions (including deterministic refusals) are cached;
// errors are not, but are shared across the flight. Cache hits return the
// stored response with FromCache set, and hits and follower copies carry
// zero Usage (the leader's response already accounts for the spend), so
// an outer Meter keeps reporting true upstream spend; the spend avoided
// by hits accumulates in CacheStats.Saved.
type Cache struct {
	inner Client

	mu       sync.Mutex
	cap      int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flightCall
	stats    CacheStats
	flight   FlightStats
}

type cacheEntry struct {
	key  string
	resp Response
}

// flightCall is one in-flight upstream request and the keys it answers:
// one for a solo request, one per member asked for a packed one.
type flightCall struct {
	done  chan struct{}
	keys  []string
	resps []Response // parallel to keys
	err   error
}

// resp returns the answer the finished call gave for key.
func (f *flightCall) resp(key string) Response {
	for i, k := range f.keys {
		if k == key {
			return f.resps[i]
		}
	}
	return Response{}
}

// Group is k requests that share most of their prompt — k questions about
// one document — and may therefore travel upstream as one packed request.
// Each member keeps its own identity where it matters: it is answered,
// cached and deduplicated under its own content address, so a group and a
// solo request for the same member share one answer.
type Group struct {
	// Reqs are the solo requests: each is the content address of its own
	// answer, and the request that goes upstream when it alone is missing.
	Reqs []Request
	// Pack builds the one upstream request that asks the given members
	// (two or more indices into Reqs, ascending) together. Unused by a
	// group of one.
	Pack func(members []int) Request
	// Split cuts the reply to a packed request into one completion text
	// per member asked, in order.
	Split func(text string, n int) ([]string, error)
	// Stop, when set, reports that a resident answer settles the group: no
	// other member needs an answer. CompleteGroup then returns that one
	// response and leaves every other member the zero Response, with
	// nothing joined or sent upstream. It is consulted under the cache's
	// lock and must only compute.
	Stop func(Response) bool
}

// GroupClient is a Client that passes a Group through to the cache
// beneath it (or is that cache). Every wrapper that can sit above the
// cache implements it — Meter, Stack, docset's per-stage tracer — so that
// only the cache decides what goes upstream.
type GroupClient interface {
	Client
	CompleteGroup(ctx context.Context, g Group) ([]Response, error)
}

// CompleteGroup answers every member of g through c: by c's own group
// path when it has one, and otherwise as the uncached case, in which every
// member is missing and the group is one upstream request.
func CompleteGroup(ctx context.Context, c Client, g Group) ([]Response, error) {
	if gc, ok := c.(GroupClient); ok {
		return gc.CompleteGroup(ctx, g)
	}
	members := make([]int, len(g.Reqs))
	for i := range members {
		members[i] = i
	}
	return g.ask(ctx, c, members)
}

// ask sends the given members upstream through c as one request — the
// member's own when there is one, the packed request otherwise — and
// returns one response per member. The first carries the whole usage of
// the call, failed or not: what went upstream is one request.
func (g Group) ask(ctx context.Context, c Client, members []int) ([]Response, error) {
	if len(members) == 1 {
		resp, err := c.Complete(ctx, g.Reqs[members[0]])
		return []Response{resp}, err
	}
	resp, err := c.Complete(ctx, g.Pack(members))
	out := make([]Response, len(members))
	out[0].Usage = resp.Usage
	if err != nil {
		return out, err
	}
	texts, err := g.Split(resp.Text, len(members))
	if err != nil {
		return out, err
	}
	for i, text := range texts {
		out[i].Text = text
	}
	return out, nil
}

// CacheOption configures a Cache.
type CacheOption func(*Cache)

// WithCapacity bounds the number of resident entries (default 4096).
func WithCapacity(n int) CacheOption {
	return func(c *Cache) {
		if n > 0 {
			c.cap = n
		}
	}
}

// NewCache wraps inner with a content-addressed LRU response cache.
func NewCache(inner Client, opts ...CacheOption) *Cache {
	c := &Cache{
		inner:    inner,
		cap:      4096,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flightCall),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Complete serves the request from cache when possible; otherwise it
// issues it upstream and memoizes the result, or waits on an identical
// in-flight request and shares its result: the group of one.
func (c *Cache) Complete(ctx context.Context, req Request) (Response, error) {
	resps, err := c.CompleteGroup(ctx, Group{Reqs: []Request{req}})
	return resps[0], err
}

// CompleteGroup answers every member of g, each under its own content
// address. Resident members are hits; if one of them settles the group
// (Group.Stop) that is the whole result. The rest are classified in the
// same critical section: a member in flight elsewhere is joined, and the
// members nobody has asked for go upstream as one request led by this
// call — solo when there is one, packed otherwise — whose answers become
// resident, each under its own key, in the critical section that ends
// their flight. A follower whose leader died of the leader's own context
// cancellation asks again (becoming leader itself) rather than inheriting
// a cancellation that isn't its own. The result always has one Response
// per member; on error, the first member led carries the failed call's
// usage.
func (c *Cache) CompleteGroup(ctx context.Context, g Group) ([]Response, error) {
	model := c.inner.Name()
	out := make([]Response, len(g.Reqs))
	// Groups are a handful of members: their bookkeeping stays on the stack.
	var keyBuf [4]string
	var pendingBuf [4]int
	keys, pending := keyBuf[:0], pendingBuf[:0]
	for i, req := range g.Reqs {
		keys, pending = append(keys, Key(model, req)), append(pending, i)
	}

	for len(pending) > 0 {
		var lead, joined []int
		var call *flightCall
		var flights []*flightCall // parallel to joined

		c.mu.Lock()
		missing := pending[:0]
		for _, i := range pending {
			el, ok := c.entries[keys[i]]
			if !ok {
				missing = append(missing, i)
				continue
			}
			c.order.MoveToFront(el)
			entry := el.Value.(*cacheEntry)
			c.stats.Hits++
			c.stats.Saved.Add(entry.resp.Usage)
			resp := entry.resp
			resp.Usage = Usage{}
			resp.FromCache = true
			if g.Stop != nil && g.Stop(resp) {
				c.mu.Unlock()
				clear(out)
				out[i] = resp
				return out, nil
			}
			out[i] = resp
		}
		for _, i := range missing {
			c.stats.Misses++
			if fc, ok := c.inflight[keys[i]]; ok {
				c.flight.Shared++
				joined, flights = append(joined, i), append(flights, fc)
				continue
			}
			if call == nil {
				call = &flightCall{done: make(chan struct{})}
				c.flight.Leads++
			}
			c.inflight[keys[i]] = call
			call.keys = append(call.keys, keys[i])
			lead = append(lead, i)
		}
		c.mu.Unlock()

		if call != nil {
			call.resps, call.err = g.ask(ctx, c.inner, lead)
			// The entries become resident in the same critical section that
			// ends the flight: whoever looks next finds one or the other.
			c.mu.Lock()
			for j, key := range call.keys {
				delete(c.inflight, key)
				if call.err == nil {
					c.put(key, call.resps[j])
				}
			}
			c.mu.Unlock()
			close(call.done)
			for j, i := range lead {
				out[i] = call.resps[j]
			}
			if call.err != nil {
				return out, call.err
			}
		}

		pending = pending[:0]
		for j, i := range joined {
			fc := flights[j]
			select {
			case <-fc.done:
			case <-ctx.Done():
				return out, ctx.Err()
			}
			if fc.err == nil {
				out[i] = fc.resp(keys[i])
				out[i].Usage = Usage{}
				continue
			}
			if errors.Is(fc.err, context.Canceled) || errors.Is(fc.err, context.DeadlineExceeded) {
				if err := ctx.Err(); err != nil {
					return out, err
				}
				// The leader's context died, not ours: ask again.
				pending = append(pending, i)
				continue
			}
			return out, fc.err
		}
	}
	return out, nil
}

// put inserts a response, evicting from the LRU tail when over capacity.
// The caller holds c.mu.
func (c *Cache) put(key string, resp Response) {
	if el, ok := c.entries[key]; ok {
		// Loading a snapshot over a warm cache: refresh recency and keep
		// the resident value.
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&cacheEntry{key: key, resp: resp})
	c.entries[key] = el
	for len(c.entries) > c.cap {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Name identifies the wrapped model.
func (c *Cache) Name() string { return c.inner.Name() }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// FlightStats returns a snapshot of the deduplication counters.
func (c *Cache) FlightStats() FlightStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flight
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every resident entry, returning how many were dropped —
// the "kill the cache mid-run" chaos hook. Hit/miss/eviction counters
// survive (a purge is an operational event, not a stats reset), so
// hit-rate deltas around a purge remain meaningful.
func (c *Cache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	return n
}

// persistedCache is the on-disk representation (keys in LRU order, most
// recent first), serialized like the index store: gzip over gob.
type persistedCache struct {
	Keys      []string
	Responses []Response
}

// Save writes the cache contents to path so a later process can warm-start
// (the disk sibling of index/persist.go). Stats are not persisted.
func (c *Cache) Save(path string) error {
	c.mu.Lock()
	snap := persistedCache{
		Keys:      make([]string, 0, len(c.entries)),
		Responses: make([]Response, 0, len(c.entries)),
	}
	for el := c.order.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*cacheEntry)
		snap.Keys = append(snap.Keys, entry.key)
		snap.Responses = append(snap.Responses, entry.resp)
	}
	c.mu.Unlock()

	err := statefile.Write(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if err := gob.NewEncoder(zw).Encode(snap); err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		return zw.Close()
	})
	if err != nil {
		return fmt.Errorf("llm: cache save: %w", err)
	}
	return nil
}

// Load merges persisted entries into the cache (existing keys keep their
// resident value). Loading counts toward capacity and may evict.
func (c *Cache) Load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("llm: cache load: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("llm: cache load: %w", err)
	}
	defer zr.Close()
	var snap persistedCache
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return fmt.Errorf("llm: cache load decode: %w", err)
	}
	if len(snap.Keys) != len(snap.Responses) {
		return fmt.Errorf("llm: cache load: corrupt snapshot (%d keys, %d responses)", len(snap.Keys), len(snap.Responses))
	}
	// Insert least-recent first so the persisted MRU order survives.
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(snap.Keys) - 1; i >= 0; i-- {
		c.put(snap.Keys[i], snap.Responses[i])
	}
	return nil
}

var _ GroupClient = (*Cache)(nil)
