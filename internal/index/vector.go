package index

import (
	"math"
	"runtime"
	"sync"

	"aryn/internal/embed"
)

// unitVector returns vec scaled to unit L2 norm. Vectors already unit
// (within float32 rounding — everything embed.Hash emits) are returned
// as-is; others are copied so the caller's slice is never mutated. With
// unit vectors indexed, cosine similarity reduces to a plain dot product
// and searches skip the per-comparison norm recomputation of Cosine.
func unitVector(vec []float32) []float32 {
	var sum float64
	for _, v := range vec {
		sum += float64(v) * float64(v)
	}
	if sum == 0 || math.Abs(sum-1) <= 1e-6 {
		return vec
	}
	inv := float32(1 / math.Sqrt(sum))
	cp := make([]float32, len(vec))
	for i, v := range vec {
		cp[i] = v * inv
	}
	return cp
}

// Exact is brute-force kNN: always correct, O(n·d) per query. Searches
// over large corpora shard the scan across a worker pool.
type Exact struct {
	ids  []int
	vecs [][]float32
}

// exactShardMin is the corpus size at which Search fans the scan out
// across CPUs; below it the goroutine overhead outweighs the win.
const exactShardMin = 4096

// NewExact returns an empty brute-force index.
func NewExact() *Exact { return &Exact{} }

// Add indexes vec under id (normalized to unit length).
func (e *Exact) Add(id int, vec []float32) {
	e.ids = append(e.ids, id)
	e.vecs = append(e.vecs, unitVector(vec))
}

// Search scans all vectors and returns the k most similar (all of them,
// ranked, when k <= 0). Ties break by ascending id.
func (e *Exact) Search(query []float32, k int) []Scored {
	q := unitVector(query)
	n := len(e.ids)
	if k <= 0 || k > n {
		k = n
	}
	workers := runtime.GOMAXPROCS(0)
	if most := n / exactShardMin; workers > most {
		workers = most
	}
	if workers <= 1 {
		t := newTopK(k)
		e.scan(q, 0, n, t)
		return t.take()
	}

	// Sharded scan: each worker heap-selects its shard's top-k, then the
	// per-shard winners merge through one more selection. The (Score, Doc)
	// total order makes the result identical to the single-threaded scan.
	var wg sync.WaitGroup
	parts := make([][]Scored, workers)
	stride := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*stride, min((w+1)*stride, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t := newTopK(min(k, hi-lo))
			e.scan(q, lo, hi, t)
			parts[w] = t.take()
		}(w, lo, hi)
	}
	wg.Wait()
	merged := newTopK(k)
	for _, part := range parts {
		for _, s := range part {
			merged.offer(s)
		}
	}
	return merged.take()
}

// scan offers rows [lo, hi) scored against q to t, four rows per pass. One
// row's score is a 1,024-long chain of dependent float64 adds, and that
// latency — not memory bandwidth — is what a scan waits on; four rows give
// the core four independent chains to overlap. Each row is still summed
// left to right exactly as embed.Dot sums it, so every score is the same
// bits; splitting one row's sum across accumulators would not be.
func (e *Exact) scan(q []float32, lo, hi int, t *topK) {
	for i := lo; i < hi; {
		if i+4 <= hi {
			a, b, c, d := e.vecs[i], e.vecs[i+1], e.vecs[i+2], e.vecs[i+3]
			if len(a) == len(q) && len(b) == len(q) && len(c) == len(q) && len(d) == len(q) {
				var sa, sb, sc, sd float64
				for j, x := range q {
					x := float64(x)
					sa += x * float64(a[j])
					sb += x * float64(b[j])
					sc += x * float64(c[j])
					sd += x * float64(d[j])
				}
				t.offer(Scored{Doc: e.ids[i], Score: sa})
				t.offer(Scored{Doc: e.ids[i+1], Score: sb})
				t.offer(Scored{Doc: e.ids[i+2], Score: sc})
				t.offer(Scored{Doc: e.ids[i+3], Score: sd})
				i += 4
				continue
			}
		}
		// The last n mod 4 rows, and a group holding a row of the wrong
		// length (which scores 0, as embed.Dot has it), go one at a time.
		t.offer(Scored{Doc: e.ids[i], Score: embed.Dot(q, e.vecs[i])})
		i++
	}
}
