package embed

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministic(t *testing.T) {
	e := NewHash(1)
	a := e.Embed("the engine lost power during cruise")
	b := e.Embed("the engine lost power during cruise")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same text should embed identically")
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := NewHash(1)
	v := e.Embed("substantial damage to the left wing")
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("norm^2 = %v, want 1", sum)
	}
	// The Embedder contract: a vector is always Dim() long.
	if len(v) != Dim || e.Dim() != Dim {
		t.Errorf("dim = %d, Dim() = %d, want %d", len(v), e.Dim(), Dim)
	}
}

func TestEmbedZeroForEmpty(t *testing.T) {
	e := NewHash(1)
	v := e.Embed("!!! --- ???")
	for _, x := range v {
		if x != 0 {
			t.Fatal("token-free text should embed to zero vector")
		}
	}
}

func TestSimilarTextsCloserThanUnrelated(t *testing.T) {
	e := NewHash(1)
	q := e.Embed("engine power loss during flight")
	related := e.Embed("the airplane had a total loss of engine power")
	unrelated := e.Embed("quarterly municipal budget allocations for sidewalk repair")
	if Cosine(q, related) <= Cosine(q, unrelated) {
		t.Errorf("related %.3f should beat unrelated %.3f",
			Cosine(q, related), Cosine(q, unrelated))
	}
	if Cosine(q, related) < 0.2 {
		t.Errorf("related similarity too low: %.3f", Cosine(q, related))
	}
}

func TestDifferentSeedsDifferentSpaces(t *testing.T) {
	a := NewHash(1).Embed("engine failure")
	b := NewHash(2).Embed("engine failure")
	if Cosine(a, b) > 0.5 {
		t.Errorf("different seeds should give unrelated spaces, cos=%.3f", Cosine(a, b))
	}
}

func TestCosineEdgeCases(t *testing.T) {
	if Cosine([]float32{1, 0}, []float32{1, 0, 0}) != 0 {
		t.Error("mismatched dims should return 0")
	}
	if Cosine(nil, nil) != 0 {
		t.Error("nil vectors should return 0")
	}
	if Cosine([]float32{0, 0}, []float32{1, 1}) != 0 {
		t.Error("zero vector should return 0")
	}
	if math.Abs(Cosine([]float32{3, 4}, []float32{3, 4})-1) > 1e-9 {
		t.Error("self-cosine should be 1")
	}
}

func TestCosineSymmetricAndBounded(t *testing.T) {
	e := NewHash(7)
	f := func(s1, s2 string) bool {
		a, b := e.Embed(s1), e.Embed(s2)
		c1, c2 := Cosine(a, b), Cosine(b, a)
		return math.Abs(c1-c2) < 1e-9 && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTokenDirectionCacheTransparent proves memoized directions change
// nothing observable: a warm embedder reproduces a cold embedder's output
// byte for byte.
func TestTokenDirectionCacheTransparent(t *testing.T) {
	texts := []string{
		"the engine lost power during cruise",
		"substantial damage to the left wing",
		"engine power loss during the forced landing", // shares tokens with both
	}
	warm := NewHash(1)
	for _, txt := range texts { // populate the cache
		warm.Embed(txt)
	}
	for _, txt := range texts {
		cold := NewHash(1) // fresh cache per text
		a, b := cold.Embed(txt), warm.Embed(txt)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cached embedding diverged for %q at dim %d", txt, i)
			}
		}
	}
}

// TestEmbedConcurrent exercises the direction cache under parallel Embed
// calls (meaningful under -race, which `make test` always enables).
func TestEmbedConcurrent(t *testing.T) {
	e := NewHash(1)
	want := NewHash(1).Embed("engine fire during landing approach")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := e.Embed("engine fire during landing approach")
				for j := range got {
					if got[j] != want[j] {
						t.Errorf("worker %d: concurrent embed diverged", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// cachedDirections reads the cache size the way a hit does.
func cachedDirections(h *Hash) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.rows)
}

// TestDirectionCacheKeepsHotTokens: a text embedded between floods of
// one-off tokens — each flood half a cache, three caches in all — keeps
// its directions. CLOCK evicts the one-offs around it, so the hot tokens
// are never generated again, its bytes never change, and the cache never
// holds more than its bound.
func TestDirectionCacheKeepsHotTokens(t *testing.T) {
	const (
		hot    = "the engine lost power during cruise and the pilot made a forced landing"
		flood  = maxCachedDirections / 2
		floods = 6
	)
	e := NewHash(1)
	want := e.Embed(hot)
	oneOffs := 0
	for f := 0; f < floods; f++ {
		made := e.made.Load()
		for i := 0; i < flood; i++ {
			e.Embed(fmt.Sprintf("n%dx", oneOffs))
			oneOffs++
			if n := cachedDirections(e); n > maxCachedDirections {
				t.Fatalf("cache holds %d directions, bound is %d", n, maxCachedDirections)
			}
		}
		if got := e.made.Load() - made; got != flood {
			t.Fatalf("flood %d generated %d directions, want one per one-off token, %d", f, got, flood)
		}
		made = e.made.Load()
		got := e.Embed(hot)
		if regenerated := e.made.Load() - made; regenerated != 0 {
			t.Fatalf("after flood %d the hot text generated %d directions again", f, regenerated)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("after flood %d the hot text embedded differently at dim %d", f, i)
			}
		}
	}
	if oneOffs < 3*maxCachedDirections || cachedDirections(e) != maxCachedDirections {
		t.Errorf("%d one-off tokens left %d directions cached, want ≥ %d through a full cache of %d",
			oneOffs, cachedDirections(e), 3*maxCachedDirections, maxCachedDirections)
	}
}

// TestDirectionCacheBoundedConcurrently pushes three caches' worth of
// fresh tokens through eight embedders at once (meaningful under -race):
// the bound holds at every look, and a shared text keeps its bytes.
func TestDirectionCacheBoundedConcurrently(t *testing.T) {
	const text = "engine fire during landing approach"
	e := NewHash(1)
	want := NewHash(1).Embed(text)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*maxCachedDirections/8; i++ {
				e.Embed(fmt.Sprintf("w%dn%dx", w, i))
				if n := cachedDirections(e); n > maxCachedDirections {
					t.Errorf("worker %d: cache holds %d directions, bound is %d", w, n, maxCachedDirections)
					return
				}
				if i%64 == 0 && !reflect.DeepEqual(e.Embed(text), want) {
					t.Errorf("worker %d: shared text embedded differently", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNormalizeIdempotent(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if math.Abs(float64(v[0])-0.6) > 1e-6 || math.Abs(float64(v[1])-0.8) > 1e-6 {
		t.Errorf("Normalize([3 4]) = %v", v)
	}
	Normalize(v)
	if math.Abs(float64(v[0])-0.6) > 1e-6 {
		t.Error("Normalize should be idempotent")
	}
}
