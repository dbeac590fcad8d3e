package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"aryn/internal/embed"
	"aryn/internal/simd"
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

// addVec indexes vec under id as PutChunk does: encoded, then appended.
func addVec(tb testing.TB, e *Exact, id int, vec []float32) {
	tb.Helper()
	r, err := encodeRow(vec)
	if err != nil {
		tb.Fatal(err)
	}
	e.add(id, r)
}

func TestExactTopKOrdering(t *testing.T) {
	e := NewExact()
	vecs := randomVectors(50, 16, 1)
	for i, v := range vecs {
		addVec(t, e, i, v)
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
// sharded) top-k path returns the full-sort ranking of the decoded rows —
// the float cosine a caller computes over the vectors hits carry —
// including duplicate-vector score ties broken by id, every score within
// 1e-7 of that cosine. GOMAXPROCS is raised so the sharded scan
// (n >= 2*rowsPerWorker with multiple workers) is exercised even on
// single-core runners.
func TestExactHeapSelectMatchesFullSort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dim = 32
	vecs := randomVectors(2*rowsPerWorker+800, dim, 11)
	// Duplicates exercise the id tie-break.
	for i := 0; i < 200; i++ {
		vecs = append(vecs, vecs[i])
	}
	e := NewExact()
	for i, v := range vecs {
		addVec(t, e, i, v)
	}
	for _, q := range randomVectors(10, dim, 12) {
		all := make([]Scored, len(vecs))
		for i := range vecs {
			all[i] = Scored{Doc: i, Score: embed.Cosine(q, e.rows[i].decode())}
		}
		for _, k := range []int{1, 10, 100} {
			want := fullSortRanking(all, k)
			got := e.Search(q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-7 {
					t.Fatalf("k=%d rank %d: heap select has %+v, the full sort of decoded rows %+v", k, i, got[i], want[i])
				}
			}
		}
	}
}

// referenceScore scores vec against query the slow way: encode, then one
// row, one component at a time.
func referenceScore(t *testing.T, query, vec []float32) float64 {
	t.Helper()
	r, err := encodeRow(vec)
	if err != nil {
		t.Fatal(err)
	}
	q := quantizeQuery(query)
	if len(q) != len(r.codes) {
		return 0
	}
	var sum int64
	for j := range q {
		sum += q[j] * int64(r.codes[j])
	}
	return float64(sum) * r.mul / (1 << 30)
}

// onBothScans runs test once per scan: the simd.Dot kernel (where the CPU
// has it) and the Go loop, so every CPU that has the kernel also tests the
// path the others take.
func onBothScans(t *testing.T, test func(t *testing.T)) {
	for _, on := range []bool{true, false} {
		name := map[bool]string{true: "kernel", false: "go"}[on]
		t.Run(name, func(t *testing.T) {
			if on && !simd.Available() {
				t.Skip("this CPU has no kernel")
			}
			defer func(was bool) { kernel = was }(kernel)
			kernel = on
			test(t)
		})
	}
}

// TestScanMatchesDotBitForBit holds both scans — the kernel and the Go
// loop's four rows per pass — to a one-row-at-a-time integer dot product,
// score bits and all: for every remainder of n mod 4, with rows of the
// wrong length in the middle of a group of four (they score 0), and
// through the sharded path.
func TestScanMatchesDotBitForBit(t *testing.T) {
	onBothScans(t, testScanMatchesDot)
}

func testScanMatchesDot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dim = 64
	q := randomVectors(1, dim, 31)[0]
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 101, 2*rowsPerWorker + 3} {
		vecs := randomVectors(n, dim, int64(32+n))
		if n > 6 {
			vecs[5] = vecs[5][:dim-1] // wrong length inside the second group
			vecs[n-1] = nil           // and in the remainder
		}
		e := NewExact()
		for i, v := range vecs {
			addVec(t, e, i, v)
		}
		want := make([]Scored, n)
		for i, v := range vecs {
			want[i] = Scored{Doc: i, Score: referenceScore(t, q, v)}
		}
		if n > 6 && (want[5].Score != 0 || want[n-1].Score != 0) {
			t.Fatalf("n=%d: rows of the wrong length score %v and %v, want 0", n, want[5].Score, want[n-1].Score)
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

// TestScanSplitInvariant is the property integer sums buy: a row's score is
// one exact integer whatever else the scan did, so cutting the rows into 1
// to 8 shards, or storing them in the opposite order, returns the same
// Scored list to the bit — on either scan.
func TestScanSplitInvariant(t *testing.T) {
	onBothScans(t, testScanSplitInvariant)
}

func testScanSplitInvariant(t *testing.T) {
	const dim = 16
	vecs := randomVectors(8*rowsPerWorker+5, dim, 41)
	forward, backward := NewExact(), NewExact()
	for i := range vecs {
		addVec(t, forward, i, vecs[i])
		j := len(vecs) - 1 - i
		addVec(t, backward, j, vecs[j])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, q := range randomVectors(3, dim, 42) {
		for _, k := range []int{10, 0} {
			want := forward.Search(q, k)
			for shards := 1; shards <= 8; shards++ {
				runtime.GOMAXPROCS(shards)
				for name, e := range map[string]*Exact{"forward": forward, "backward": backward} {
					if got := e.Search(q, k); !slices.Equal(got, want) {
						t.Fatalf("k=%d, %d shards, rows %s: the ranking moved", k, shards, name)
					}
				}
			}
			runtime.GOMAXPROCS(1)
		}
	}
}

// checkCodec holds one vector to the codec's contract: the largest
// component carries ±32,767, the decoded row is a unit vector, and it
// encodes back to the codes and multiplier it was decoded from. The zero
// vector encodes to zero codes and scores 0.
func checkCodec(t *testing.T, vec []float32) {
	t.Helper()
	r, err := encodeRow(vec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.codes) != len(vec) {
		t.Fatalf("%d codes for %d components", len(r.codes), len(vec))
	}
	peak, zero := 0, true
	for i, c := range r.codes {
		peak = max(peak, int(c), -int(c))
		zero = zero && vec[i] == 0
	}
	if zero {
		if peak != 0 || r.mul != 0 || r.score(dotCodes(quantizeQuery(vec), r.codes)) != 0 {
			t.Fatalf("the zero vector encodes to peak %d, mul %v", peak, r.mul)
		}
		return
	}
	if peak != codeMax {
		t.Fatalf("largest |code| is %d, want %d", peak, codeMax)
	}
	decoded := r.decode()
	var sq float64
	for _, x := range decoded {
		sq += float64(x) * float64(x)
	}
	if norm := math.Sqrt(sq); math.Abs(norm-1) > 1e-6 {
		t.Fatalf("decoded norm %v", norm)
	}
	again, err := encodeRow(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again.codes, r.codes) || again.mul != r.mul {
		t.Fatalf("decode then encode moved the row: mul %v → %v", r.mul, again.mul)
	}
	// A vector is its own nearest neighbour, at cosine 1 to the codes' grain.
	if self := r.score(dotCodes(quantizeQuery(vec), r.codes)); math.Abs(self-1) > 1e-4 {
		t.Fatalf("scores %v against itself", self)
	}
}

func TestVectorCodec(t *testing.T) {
	for _, vec := range [][]float32{
		nil, {0, 0, 0}, {1}, {-2.5}, {3, 4}, {1e-30, -1e-38, 1e-45},
		{math.MaxFloat32, -math.MaxFloat32, 1}, {1, 1e-9, 0, -1},
	} {
		checkCodec(t, vec)
	}
	for _, vec := range randomVectors(50, 1024, 51) {
		checkCodec(t, vec)
	}
}

// FuzzVectorCodec reads its input as float32s and holds every finite row to
// checkCodec; a row with a NaN or ±Inf component must be refused.
func FuzzVectorCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 192, 0, 0, 0, 0})      // 1, -2, 0
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 63})                // NaN, 1
	f.Add([]byte{1, 0, 0, 0, 255, 255, 127, 127, 0, 0, 128, 0}) // smallest subnormal, MaxFloat32, smallest normal
	f.Fuzz(func(t *testing.T, data []byte) {
		vec := make([]float32, len(data)/4)
		finite := true
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			finite = finite && !math.IsNaN(float64(vec[i])) && !math.IsInf(float64(vec[i]), 0)
		}
		if !finite {
			if _, err := encodeRow(vec); err == nil {
				t.Fatalf("encoded %v", vec)
			}
			return
		}
		checkCodec(t, vec)
	})
}

// A vector with a NaN or ±Inf component is refused at the door. Indexed, it
// made every score against its row NaN, which compares false both ways: the
// top-k heap's order, and which real hits it evicted, were undefined.
func TestNonFiniteVectorIsAnError(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	s := NewStore()
	if err := s.PutChunk(Chunk{ID: "ok", ParentID: "d", Text: "engine", Vector: []float32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	for _, vec := range [][]float32{{1, nan, 3}, {inf, 2, 3}, {1, 2, -inf}} {
		if err := s.PutChunk(Chunk{ID: "bad", ParentID: "d", Text: "engine", Vector: vec}); err == nil {
			t.Errorf("PutChunk indexed %v", vec)
		}
	}
	if s.NumChunks() != 1 || len(s.vec.rows) != 1 || len(s.SearchChunks(Query{Keyword: "engine"})) != 1 {
		t.Errorf("a refused chunk left something behind: %d chunks, %d rows", s.NumChunks(), len(s.vec.rows))
	}
	// A query with no direction scores 0 against everything; it is not a NaN.
	for _, q := range [][]float32{{nan, 1, 1}, {inf, 0, 0}, {0, 0, 0}} {
		hits := s.SearchChunks(Query{Vector: q})
		if len(hits) != 1 || hits[0].Score != 0 {
			t.Errorf("query %v: hits %+v, want one at score 0", q, hits)
		}
	}
}

// What the store keeps per chunk holds no float slice: the vector is 16-bit
// codes in the vector index and nowhere else. A []float32 field added to
// either type is 4 KB a chunk back on the heap; this fails first.
func TestStoredChunkHoldsNoFloatSlice(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Slice, reflect.Array, reflect.Pointer:
			if k := typ.Elem().Kind(); k == reflect.Float32 || k == reflect.Float64 {
				t.Errorf("%s is a %s", path, typ)
			}
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"[key]")
			walk(typ.Elem(), path+"[value]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(storedChunk{}), "storedChunk")
	walk(reflect.TypeOf(Exact{}), "Exact")
	if got := reflect.TypeOf(row{}.codes).Elem().Size(); got != 2 {
		t.Errorf("a code is %d bytes, want 2", got)
	}
}

// BenchmarkExactSearch is the retrieval-heavy workload's inner loop alone: a
// top-10 search over 7,635 unit rows of 1,024 (the 1,500-accident corpus's
// chunk count), on each scan — the simd.Dot kernel and the Go loop — at one
// shard and at as many as GOMAXPROCS and rowsPerWorker allow. Beside ns/op
// it prints the row bytes scanned per second and what a row costs on the
// heap; `make bench` prints all three in every CI log.
func BenchmarkExactSearch(b *testing.B) {
	const n, dim = 7635, 1024
	base := liveHeap()
	e := NewExact()
	rng := rand.New(rand.NewSource(61))
	vec := make([]float32, dim)
	for i := 0; i < n+1; i++ {
		for j := range vec {
			vec[j] = float32(rng.NormFloat64())
		}
		if i == n {
			break // the last draw is the query
		}
		addVec(b, e, i, vec)
	}
	bytesPerRow := float64(liveHeap()-base) / n
	procs := runtime.GOMAXPROCS(0)
	for _, on := range []bool{true, false} {
		for _, shards := range []int{1, min(procs, n/rowsPerWorker)} {
			name := fmt.Sprintf("%s/shards=%d", map[bool]string{true: "kernel", false: "go"}[on], shards)
			b.Run(name, func(b *testing.B) {
				if on && !simd.Available() {
					b.Skip("this CPU has no kernel")
				}
				defer func(was bool) { kernel = was }(kernel)
				kernel = on
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(shards, 1)))
				for b.Loop() {
					if hits := e.Search(vec, 10); len(hits) != 10 {
						b.Fatalf("%d hits", len(hits))
					}
				}
				b.ReportMetric(float64(n*dim*2)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
				b.ReportMetric(bytesPerRow, "bytes/row")
			})
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
// vectors still ranks by true cosine similarity (encoding normalizes
// copies, never the caller's slice).
func TestExactNormalizationPreservesCosine(t *testing.T) {
	e := NewExact()
	raw := []float32{3, 4, 0, 0}
	rawCopy := append([]float32(nil), raw...)
	addVec(t, e, 0, raw)
	addVec(t, e, 1, []float32{0, 0, 5, 0})
	for i := range raw {
		if raw[i] != rawCopy[i] {
			t.Fatal("indexing must not mutate the caller's vector")
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
