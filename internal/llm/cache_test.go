package llm

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingClient is a middleware test double: deterministic responses,
// atomic upstream-call counting, optional per-call delay.
type countingClient struct {
	calls atomic.Int64
	delay time.Duration
	err   error
}

func (c *countingClient) Complete(ctx context.Context, req Request) (Response, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		select {
		case <-time.After(c.delay):
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if c.err != nil {
		return Response{}, c.err
	}
	return Response{
		Text:  "echo:" + req.Prompt,
		Usage: Usage{Calls: 1, PromptTokens: CountTokens(req.Prompt), CompletionTokens: 2},
	}, nil
}

func (c *countingClient) Name() string { return "counting" }

func TestCacheKeyDiscriminates(t *testing.T) {
	base := Request{System: "s", Prompt: "p", MaxTokens: 10, Temperature: 0.5}
	same := Key("m", base)
	variants := []Request{
		{System: "s2", Prompt: "p", MaxTokens: 10, Temperature: 0.5},
		{System: "s", Prompt: "p2", MaxTokens: 10, Temperature: 0.5},
		{System: "s", Prompt: "p", MaxTokens: 11, Temperature: 0.5},
		{System: "s", Prompt: "p", MaxTokens: 10, Temperature: 0.6},
	}
	for i, v := range variants {
		if Key("m", v) == same {
			t.Errorf("variant %d collided with base key", i)
		}
	}
	if Key("other-model", base) == same {
		t.Error("different model collided with base key")
	}
	if Key("m", base) != same {
		t.Error("identical request produced different keys")
	}
	// Field-boundary ambiguity: ("ab","c") must differ from ("a","bc").
	if Key("m", Request{System: "ab", Prompt: "c"}) == Key("m", Request{System: "a", Prompt: "bc"}) {
		t.Error("system/prompt boundary is ambiguous in the key")
	}
}

func TestCacheHitMiss(t *testing.T) {
	inner := &countingClient{}
	cache := NewCache(inner, 4096)
	ctx := context.Background()

	first, err := cache.Complete(ctx, Request{Prompt: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if first.FromCache {
		t.Error("first call must miss")
	}
	second, err := cache.Complete(ctx, Request{Prompt: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.FromCache {
		t.Error("second identical call must hit")
	}
	if second.Text != first.Text {
		t.Errorf("cached text %q != original %q", second.Text, first.Text)
	}
	if second.Usage != (Usage{}) {
		t.Errorf("cache hit must carry zero usage, got %+v", second.Usage)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("upstream called %d times, want 1", got)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if st.Saved.Total() != first.Usage.Total() {
		t.Errorf("saved %d tokens, want %d", st.Saved.Total(), first.Usage.Total())
	}
}

func TestCacheEviction(t *testing.T) {
	inner := &countingClient{}
	cache := NewCache(inner, 2)
	ctx := context.Background()

	for _, p := range []string{"a", "b"} {
		if _, err := cache.Complete(ctx, Request{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so the hand passes it and "b" becomes the victim.
	if resp, _ := cache.Complete(ctx, Request{Prompt: "a"}); !resp.FromCache {
		t.Fatal("expected hit on a")
	}
	if _, err := cache.Complete(ctx, Request{Prompt: "c"}); err != nil {
		t.Fatal(err)
	}
	// Check the survivor first: a miss-check re-inserts its key and would
	// evict the survivor before we looked at it.
	if resp, _ := cache.Complete(ctx, Request{Prompt: "a"}); !resp.FromCache {
		t.Error("a should have survived eviction")
	}
	if resp, _ := cache.Complete(ctx, Request{Prompt: "b"}); resp.FromCache {
		t.Error("b should have been evicted")
	}
	if st := cache.Stats(); st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if cache.Stats().Entries != 2 {
		t.Errorf("resident entries = %d, want 2", cache.Stats().Entries)
	}
}

// queueKeys lists the resident keys in queue order, head first.
func queueKeys(c *Cache) []string {
	var keys []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*cacheEntry).key)
	}
	return keys
}

// An answer reused once survives a scan of one-off prompts three times the
// cache's size: the hand clears its mark once and then cycles among the
// one-offs. Under LRU the scan evicts it after the cache's size.
func TestCacheKeepsReusedThroughScan(t *testing.T) {
	inner := &countingClient{}
	cache := NewCache(inner, 8)
	ctx := context.Background()
	hot := []string{"h0", "h1", "h2", "h3"}
	for range 2 { // a miss, then the one hit
		for _, p := range hot {
			if _, err := cache.Complete(ctx, Request{Prompt: p}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range 24 {
		if _, err := cache.Complete(ctx, Request{Prompt: fmt.Sprintf("once%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range hot {
		if _, ok := cache.entries[Key(inner.Name(), Request{Prompt: p})]; !ok {
			t.Errorf("%s was evicted by the scan of one-off prompts", p)
		}
	}
	if st := cache.Stats(); st.Entries != 8 || st.Evictions != 20 {
		t.Errorf("entries = %d, evictions = %d, want 8 and 20", st.Entries, st.Evictions)
	}
}

// Save writes the queue head first and Load rebuilds it in the same order,
// evictions and visited marks notwithstanding.
func TestCacheSaveLoadKeepsQueueOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "llm-cache.gob.gz")
	cache := NewCache(&countingClient{}, 4)
	ctx := context.Background()
	for _, p := range []string{"a", "b", "a", "c", "d", "e", "b"} {
		if _, err := cache.Complete(ctx, Request{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	want := queueKeys(cache)
	if len(want) != 4 {
		t.Fatalf("%d resident, want 4", len(want))
	}
	if err := cache.Save(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCache(&countingClient{}, 4)
	if err := warm.Load(path); err != nil {
		t.Fatal(err)
	}
	if got := queueKeys(warm); !slices.Equal(got, want) {
		t.Errorf("loaded queue %q, want the saved %q", got, want)
	}
}

// Purge drops the hand with the entries: the next eviction starts again at
// the tail, the oldest entry, and counts once.
func TestCachePurgeResetsHand(t *testing.T) {
	inner := &countingClient{}
	cache := NewCache(inner, 2)
	ctx := context.Background()
	for _, p := range []string{"a", "b", "c"} {
		if _, err := cache.Complete(ctx, Request{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	if cache.hand == nil {
		t.Fatal("no hand after an eviction")
	}
	cache.Purge()
	if cache.hand != nil {
		t.Fatal("Purge kept the hand")
	}
	before := cache.Stats().Evictions
	for _, p := range []string{"x", "y", "z"} {
		if _, err := cache.Complete(ctx, Request{Prompt: p}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{Key(inner.Name(), Request{Prompt: "z"}), Key(inner.Name(), Request{Prompt: "y"})}
	if got := queueKeys(cache); !slices.Equal(got, want) {
		t.Errorf("after a purge and three inserts the queue holds %d entries, want z and y", len(got))
	}
	if n := cache.Stats().Evictions - before; n != 1 {
		t.Errorf("%d evictions after the purge, want 1", n)
	}
}

// BenchmarkCacheCyclic reads a cyclic working set three times the cache's
// capacity with a reused subset, as a mix of analytics queries over one
// corpus does. Each round asks the subset (a quarter of the capacity) twice
// in a row, a query and its repeat, then the next capacity's worth of the
// cycle; an op is twelve rounds, four times around the cycle, on an empty
// cache. A subset key comes back after more than the capacity in other
// keys, so LRU keeps it only for its repeat (hit_ratio 0.167), where SIEVE
// keeps it from round to round (0.319).
func BenchmarkCacheCyclic(b *testing.B) {
	const (
		capacity = 256
		subset   = capacity / 4
		rounds   = 12
	)
	prompts := func(prefix string, n int) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Prompt: fmt.Sprintf("%s%d", prefix, i)}
		}
		return reqs
	}
	cycle, reused := prompts("cycle", 3*capacity), prompts("reused", subset)
	ctx := context.Background()
	var st CacheStats
	b.ReportAllocs()
	for b.Loop() {
		cache := NewCache(&countingClient{}, capacity)
		next := 0
		for range rounds {
			for i := range 2 * subset {
				if _, err := cache.Complete(ctx, reused[i%subset]); err != nil {
					b.Fatal(err)
				}
			}
			for range capacity {
				if _, err := cache.Complete(ctx, cycle[next]); err != nil {
					b.Fatal(err)
				}
				next = (next + 1) % len(cycle)
			}
		}
		st = cache.Stats()
	}
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit_ratio")
}

func TestCacheDoesNotStoreErrors(t *testing.T) {
	inner := &countingClient{err: ErrTransient}
	cache := NewCache(inner, 4096)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cache.Complete(ctx, Request{Prompt: "x"}); err == nil {
			t.Fatal("expected error")
		}
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("upstream called %d times, want 2 (errors must not be cached)", got)
	}
}

func TestCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "llm-cache.gob.gz")
	inner := &countingClient{}
	cache := NewCache(inner, 4096)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cache.Complete(ctx, Request{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cache.Save(path); err != nil {
		t.Fatal(err)
	}

	inner2 := &countingClient{}
	warm := NewCache(inner2, 4096)
	if err := warm.Load(path); err != nil {
		t.Fatal(err)
	}
	if warm.Stats().Entries != 5 {
		t.Fatalf("loaded %d entries, want 5", warm.Stats().Entries)
	}
	resp, err := warm.Complete(ctx, Request{Prompt: "p3"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.FromCache {
		t.Error("warm-started cache should hit on persisted entry")
	}
	if got := inner2.calls.Load(); got != 0 {
		t.Errorf("upstream called %d times on a warm hit, want 0", got)
	}
}

// cacheFuzzReqs are the requests FuzzCacheLoad's seed snapshots hold.
var cacheFuzzReqs = []Request{{Prompt: "p0"}, {Prompt: "p1"}, {System: "s", Prompt: "p2", MaxTokens: 4}}

// cacheSnapshot is the file Save writes for snap, built without a cache so
// a seed can hold what no cache would write (duplicate keys, mismatched
// lengths).
func cacheSnapshot(f *testing.F, snap persistedCache) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		f.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCacheLoad: for any bytes, Load returns an error or a cache that
// serves what it loaded — every key of the snapshot resident with the
// response its most recent copy carries, and every seed request whose key
// was loaded a hit that never goes upstream — and it never panics.
func FuzzCacheLoad(f *testing.F) {
	cache := NewCache(&countingClient{}, 4096)
	for _, req := range cacheFuzzReqs {
		if _, err := cache.Complete(context.Background(), req); err != nil {
			f.Fatal(err)
		}
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.gob.gz")
	if err := cache.Save(path); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x10
	key := Key("counting", cacheFuzzReqs[0])
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(cacheSnapshot(f, persistedCache{Keys: []string{key, key}, Responses: []Response{{Text: "new"}, {Text: "old", Refusal: true}}}))
	f.Add(cacheSnapshot(f, persistedCache{Keys: []string{key, "k"}, Responses: []Response{{Text: "one"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// One fuzz process runs its inputs one at a time: one file serves.
		path := filepath.Join(dir, "input.gob.gz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, decodeErr := decodeCache(bytes.NewReader(data))
		inner := &countingClient{}
		cache := NewCache(inner, len(snap.Keys)+1)
		loadErr := cache.Load(path)
		if (decodeErr == nil) != (loadErr == nil) {
			t.Fatalf("decode error %v, load error %v", decodeErr, loadErr)
		}
		if loadErr != nil {
			return
		}
		// Entries are put least recent first and a resident key keeps its
		// value, so a duplicated key holds its last copy's response.
		want := map[string]Response{}
		for i := len(snap.Keys) - 1; i >= 0; i-- {
			if _, ok := want[snap.Keys[i]]; !ok {
				want[snap.Keys[i]] = snap.Responses[i]
			}
		}
		if cache.Stats().Entries != len(want) {
			t.Fatalf("%d entries resident, want the snapshot's %d keys", cache.Stats().Entries, len(want))
		}
		for k, resp := range want {
			el, ok := cache.entries[k]
			if !ok || el.Value.(*cacheEntry).resp != resp {
				t.Fatalf("key %q: resident %v, want %+v", k, ok, resp)
			}
		}
		for _, req := range cacheFuzzReqs {
			resp, ok := want[Key(inner.Name(), req)]
			if !ok {
				continue
			}
			got, err := cache.Complete(context.Background(), req)
			if err != nil || !got.FromCache || got.Text != resp.Text || got.Refusal != resp.Refusal {
				t.Fatalf("request %+v: got %+v (%v), want the loaded %+v from cache", req, got, err, resp)
			}
		}
		if n := inner.calls.Load(); n != 0 {
			t.Fatalf("loaded requests went upstream %d times", n)
		}
	})
}

func TestCacheConcurrentAccess(t *testing.T) {
	inner := &countingClient{}
	cache := NewCache(inner, 8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// 16 distinct prompts over capacity 8: constant churn.
				if _, err := cache.Complete(ctx, Request{Prompt: fmt.Sprintf("p%d", (w+i)%16)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Hits+st.Misses != 16*50 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 16*50)
	}
	if cache.Stats().Entries > 8 {
		t.Errorf("resident entries = %d, want <= 8", cache.Stats().Entries)
	}
}
