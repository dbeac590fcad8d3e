package index

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"aryn/internal/simd"
)

// A stored vector is a row of 16-bit fixed-point codes and one multiplier:
//
//	code[i] = RoundToEven(x[i] / max|x| · 32767)
//	mul     = 1 / √Σcode²
//
// so the decoded row, code·mul, is a unit vector whatever the length of x
// was: normalisation is the representation, not a step before it. A row of
// embed.Dim components is 2 KB + 8 bytes where the float32 slice was 4 KB,
// and the largest component always carries ±32,767, so the codes use the
// whole range however peaked or flat the vector is.
type row struct {
	codes []int16
	mul   float64
}

const (
	codeMax = math.MaxInt16
	// queryScale is the fixed point of a search's query: the unit query's
	// components are quantised to multiples of 2⁻³⁰, the grain float32 has
	// at 0.03, a typical component of a 1,024-long unit vector, so the grid
	// drops next to nothing the query held. A row's integer dot
	// product is bounded by 2³⁰ · √Σcode² ≤ 2³⁰ · 32,767 · √len, far inside
	// int64 for any length a process can hold.
	queryScale = 1 << 30
)

// encodeRow quantises vec. The zero vector (and the empty one) encodes to
// zero codes with mul 0 and scores 0 against every query. A NaN or ±Inf
// component is an error: there is no code for it, and as a float it made
// every score against the row NaN, which no ranking orders.
func encodeRow(vec []float32) (row, error) {
	var peak float64
	for i, v := range vec {
		a := math.Abs(float64(v))
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return row{}, fmt.Errorf("vector component %d is %v", i, v)
		}
		peak = max(peak, a)
	}
	r := row{codes: make([]int16, len(vec))}
	if peak == 0 {
		return r, nil
	}
	var sq int64
	for i, v := range vec {
		c := int64(math.RoundToEven(float64(v) / peak * codeMax))
		r.codes[i] = int16(c)
		sq += c * c
	}
	r.mul = 1 / math.Sqrt(float64(sq))
	return r, nil
}

// decode returns the unit vector the row stands for, as float32. Encoding
// it again gives the same codes and mul (the codec tests hold that), which
// is what lets a snapshot carry decoded rows and load to the same scores.
func (r row) decode() []float32 {
	out := make([]float32, len(r.codes))
	for i, c := range r.codes {
		out[i] = float32(float64(c) * r.mul)
	}
	return out
}

// quantizeQuery returns the unit vector along query in queryScale fixed
// point. A query with no direction — zero, or not finite — quantises to
// zeros and scores 0 against every row.
func quantizeQuery(query []float32) []int64 {
	var sum float64
	for _, v := range query {
		sum += float64(float64(v) * float64(v))
	}
	q := make([]int64, len(query))
	if !(sum > 0) || math.IsInf(sum, 0) {
		return q
	}
	scale := queryScale / math.Sqrt(sum)
	for i, v := range query {
		q[i] = int64(math.RoundToEven(float64(v) * scale))
	}
	return q
}

// Exact is brute-force kNN: always correct, O(n·d) per query. Searches
// over large corpora shard the scan across a worker pool.
type Exact struct {
	ids  []int
	rows []row
}

// rowsPerWorker is the least a scan shard gets: Search runs
// min(GOMAXPROCS, n/rowsPerWorker) shards. BenchmarkExactSearch on a 2-vCPU
// Xeon with the AVX2 kernel: 7,635 × 1,024 rows take ≈ 1.6–2.1 ms on one
// shard (≈ 240 ns and 2 KB a row) and ≈ 0.75–1.5 ms on two; the same rows
// cut short gain nothing from a second shard at 256 and ≈ 30% at 1,024.
// Smaller stores (serve-warm's ≈ 500 rows) scan on one shard and leave the
// other cores to concurrent requests.
const rowsPerWorker = 1024

// kernel is whether Search scores rows with simd.Dot. It is fixed at
// start-up by the CPU; tests turn it off to hold the Go loop to the same
// bits.
var kernel = simd.Available()

// NewExact returns an empty brute-force index.
func NewExact() *Exact { return &Exact{} }

// add appends an encoded row and returns its position.
func (e *Exact) add(id int, r row) int {
	e.ids = append(e.ids, id)
	e.rows = append(e.rows, r)
	return len(e.rows) - 1
}

// Search scans all vectors and returns the k most similar by cosine (all of
// them, ranked, when k <= 0). Ties break by ascending id.
func (e *Exact) Search(query []float32, k int) []Scored {
	scan := e.scanner(quantizeQuery(query))
	n := len(e.ids)
	if k <= 0 || k > n {
		k = n
	}
	workers := min(runtime.GOMAXPROCS(0), n/rowsPerWorker)
	if workers <= 1 {
		t := newTopK(k)
		scan(0, n, t)
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
			scan(lo, hi, t)
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

// score turns a row's integer dot product with the quantised query into the
// cosine it stands for. It is the only floating-point step of a search, and
// it sees one exact integer per row: how the scan grouped, split or ordered
// the sum cannot reach it.
func (r row) score(dot int64) float64 {
	return float64(dot) * r.mul / queryScale
}

// scanner returns the scan Search runs over rows [lo, hi): the simd.Dot
// kernel where the CPU has it and the query's length suits it, the Go loop
// otherwise. Both give every row the same exact integer, so the same
// score bits.
func (e *Exact) scanner(q []int64) func(lo, hi int, t *topK) {
	if !kernel || !simd.DotFits(len(q)) {
		return func(lo, hi int, t *topK) { e.scan(q, lo, hi, t) }
	}
	// The query converts once per search; at 1,024 components its 8 KB
	// stay in L1 while the rows stream past.
	qf := make([]float64, len(q))
	for j, x := range q {
		qf[j] = float64(x)
	}
	return func(lo, hi int, t *topK) { e.scanKernel(qf, lo, hi, t) }
}

// scanKernel offers rows [lo, hi) scored with simd.Dot against qf to t. A
// row whose length is not the query's scores 0.
func (e *Exact) scanKernel(qf []float64, lo, hi int, t *topK) {
	for i := lo; i < hi; i++ {
		r := e.rows[i]
		var dot int64
		if len(r.codes) == len(qf) {
			dot = simd.Dot(qf, r.codes)
		}
		t.offer(Scored{Doc: e.ids[i], Score: r.score(dot)})
	}
}

// scan offers rows [lo, hi) scored against q to t, four rows per pass: one
// load of each query component serves four rows, and the four sums are
// independent, so the core overlaps them. A row whose length is not the
// query's scores 0.
func (e *Exact) scan(q []int64, lo, hi int, t *topK) {
	for i := lo; i < hi; {
		if i+4 <= hi {
			a, b, c, d := e.rows[i].codes, e.rows[i+1].codes, e.rows[i+2].codes, e.rows[i+3].codes
			if len(a) == len(q) && len(b) == len(q) && len(c) == len(q) && len(d) == len(q) {
				var sa, sb, sc, sd int64
				for j, x := range q {
					sa += x * int64(a[j])
					sb += x * int64(b[j])
					sc += x * int64(c[j])
					sd += x * int64(d[j])
				}
				t.offer(Scored{Doc: e.ids[i], Score: e.rows[i].score(sa)})
				t.offer(Scored{Doc: e.ids[i+1], Score: e.rows[i+1].score(sb)})
				t.offer(Scored{Doc: e.ids[i+2], Score: e.rows[i+2].score(sc)})
				t.offer(Scored{Doc: e.ids[i+3], Score: e.rows[i+3].score(sd)})
				i += 4
				continue
			}
		}
		// The last n mod 4 rows, and a group holding a row of the wrong
		// length, go one at a time.
		t.offer(Scored{Doc: e.ids[i], Score: e.rows[i].score(dotCodes(q, e.rows[i].codes))})
		i++
	}
}

// dotCodes is Σ q·codes, 0 when the lengths differ.
func dotCodes(q []int64, codes []int16) int64 {
	if len(codes) != len(q) {
		return 0
	}
	var sum int64
	for j, x := range q {
		sum += x * int64(codes[j])
	}
	return sum
}
