package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"aryn/internal/embed"
)

func randomVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		embed.Normalize(v)
		out[i] = v
	}
	return out
}

func TestExactTopKOrdering(t *testing.T) {
	e := NewExact()
	vecs := randomVectors(50, 16, 1)
	for i, v := range vecs {
		e.Add(i, v)
	}
	q := vecs[7]
	res := e.Search(q, 5)
	if len(res) != 5 {
		t.Fatalf("want 5 results, got %d", len(res))
	}
	if res[0].Doc != 7 {
		t.Errorf("self should rank first, got %d", res[0].Doc)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("scores not descending at %d", i)
		}
	}
}

// fullSortRanking is the pre-overhaul reference ranking: score every
// candidate, sort the whole list by (score desc, id asc), truncate to k.
func fullSortRanking(cands []Scored, k int) []Scored {
	out := append([]Scored(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestExactHeapSelectMatchesFullSort proves the bounded-heap (and
// sharded) top-k path returns exactly the old full-sort ranking,
// including duplicate-vector score ties broken by id. GOMAXPROCS is
// raised so the sharded scan (n >= 2*exactShardMin with multiple
// workers) is exercised even on single-core runners.
func TestExactHeapSelectMatchesFullSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dim = 32
	vecs := randomVectors(2*exactShardMin+800, dim, 11)
	// Duplicates exercise the id tie-break.
	for i := 0; i < 200; i++ {
		vecs = append(vecs, vecs[i])
	}
	e := NewExact()
	for i, v := range vecs {
		e.Add(i, v)
	}
	for _, q := range randomVectors(10, dim, 12) {
		// Reference: score all candidates with the same dot product, full sort.
		all := make([]Scored, len(vecs))
		for i, v := range vecs {
			all[i] = Scored{Doc: i, Score: embed.Dot(q, v)}
		}
		for _, k := range []int{1, 10, 100} {
			want := fullSortRanking(all, k)
			got := e.Search(q, k)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("k=%d: heap select diverged from full sort\ngot  %v\nwant %v", k, got[:3], want[:3])
			}
		}
	}
}

// TestScanMatchesDotBitForBit holds the four-rows-per-pass scan to the
// one-row-at-a-time embed.Dot reference, score bits and all: for every
// remainder of n mod 4, with rows of the wrong length in the middle of a
// group of four (they score 0), and through the sharded path.
func TestScanMatchesDotBitForBit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dim = 64
	q := randomVectors(1, dim, 31)[0]
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 101, 2*exactShardMin + 3} {
		vecs := randomVectors(n, dim, int64(32+n))
		if n > 6 {
			vecs[5] = vecs[5][:dim-1] // wrong length inside the second group
			vecs[n-1] = nil           // and in the remainder
		}
		e := NewExact()
		for i, v := range vecs {
			e.Add(i, v)
		}
		want := make([]Scored, n)
		for i, v := range vecs {
			want[i] = Scored{Doc: i, Score: embed.Dot(q, v)}
		}
		want = fullSortRanking(want, 0)
		for _, k := range []int{0, 3, n} {
			got := e.Search(q, k)
			ref := want
			if k > 0 && k < n {
				ref = want[:k]
			}
			if len(got) != len(ref) {
				t.Fatalf("n=%d k=%d: %d results, want %d", n, k, len(got), len(ref))
			}
			for i := range got {
				if got[i].Doc != ref[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) {
					t.Fatalf("n=%d k=%d rank %d: got %+v, want %+v", n, k, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestBM25HeapSelectMatchesFullSort proves BM25's bounded top-k equals
// truncating the exhaustive (k=0) ranking.
func TestBM25HeapSelectMatchesFullSort(t *testing.T) {
	ix := newBM25()
	words := []string{"engine", "wing", "fuel", "pilot", "runway", "fire", "stall"}
	for i := 0; i < 500; i++ {
		text := fmt.Sprintf("%s %s %s report %d",
			words[i%len(words)], words[(i/3)%len(words)], words[(i/5)%len(words)], i)
		ix.add(i, countTerms(text))
	}
	for _, query := range []string{"engine fire", "pilot runway stall", "wing"} {
		all := ix.search(query, 0)
		for _, k := range []int{1, 7, 50} {
			want := all
			if len(want) > k {
				want = want[:k]
			}
			got := ix.search(query, k)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("query %q k=%d: heap select diverged from full ranking", query, k)
			}
		}
	}
}

// TestExactNormalizationPreservesCosine checks that indexing non-unit
// vectors still ranks by true cosine similarity (Add normalizes copies,
// never the caller's slice).
func TestExactNormalizationPreservesCosine(t *testing.T) {
	e := NewExact()
	raw := []float32{3, 4, 0, 0}
	rawCopy := append([]float32(nil), raw...)
	e.Add(0, raw)
	e.Add(1, []float32{0, 0, 5, 0})
	for i := range raw {
		if raw[i] != rawCopy[i] {
			t.Fatal("Add must not mutate the caller's vector")
		}
	}
	res := e.Search([]float32{6, 8, 0, 0}, 2)
	if res[0].Doc != 0 || math.Abs(res[0].Score-1) > 1e-6 {
		t.Errorf("parallel vector should score cosine 1, got %+v", res[0])
	}
	if math.Abs(res[1].Score) > 1e-6 {
		t.Errorf("orthogonal vector should score 0, got %+v", res[1])
	}
}

func TestBM25BasicRelevance(t *testing.T) {
	ix := newBM25()
	ix.add(0, countTerms("the engine failed during cruise flight"))
	ix.add(1, countTerms("the pilot landed safely at the airport"))
	ix.add(2, countTerms("engine engine engine maintenance records"))
	res := ix.search("engine failed", 3)
	if len(res) < 2 {
		t.Fatalf("want >=2 hits, got %d", len(res))
	}
	if res[0].Doc != 0 {
		// doc 0 matches both terms; doc 2 matches one term thrice.
		t.Errorf("doc 0 should outrank repetition-only doc 2: %v", res)
	}
}

func TestBM25EmptyCases(t *testing.T) {
	ix := newBM25()
	if got := ix.search("anything", 5); got != nil {
		t.Error("empty index should return nil")
	}
	ix.add(0, countTerms("content here"))
	if got := ix.search("", 5); got != nil {
		t.Error("empty query should return nil")
	}
	if got := ix.search("zzz qqq", 5); len(got) != 0 {
		t.Error("no matching terms should return empty")
	}
}

func TestBM25RareTermWeighsMore(t *testing.T) {
	ix := newBM25()
	for i := 0; i < 20; i++ {
		ix.add(i, countTerms("airplane airplane common words"))
	}
	ix.add(20, countTerms("airplane gyrocopter unusual"))
	res := ix.search("gyrocopter", 5)
	if len(res) != 1 || res[0].Doc != 20 {
		t.Fatalf("rare term lookup = %v", res)
	}
}
