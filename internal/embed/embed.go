package embed

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"aryn/internal/llm"
	"aryn/internal/randsrc"
	"aryn/internal/simd"
)

// Dim is the embedding dimensionality. MiniLM uses 384 trained
// dimensions; random-projection hash embeddings need more headroom to
// push the inter-document noise floor (~1/sqrt(Dim)) below weak true
// signals, so the simulator uses 1024.
const Dim = 1024

// Embedder converts text to fixed-size vectors.
type Embedder interface {
	// Embed returns the vector for text; always length Dim().
	Embed(text string) []float32
	// Dim returns the vector dimensionality.
	Dim() int
	// Name identifies the model for traces.
	Name() string
}

// Hash is the hashed bag-of-tokens embedder. A token's direction is a
// pure function of (seed, token), so it is cached: a token seen recently
// reuses its unit direction instead of paying for the Gaussian generation
// again — per chunk at ingest, per query at ask-time. Safe for concurrent
// use.
//
// The cache is maxCachedDirections rows of one slab, allocated on the
// first miss, so an unused Hash costs nothing and a full one 2 MB. It
// evicts by CLOCK (second chance): a hit sets its row's reference bit,
// and a miss sweeps the hand past set bits, clearing them, to the first
// row nobody read since the hand last passed, and overwrites it in place.
// A token read at least once per sweep — the few hundred words that make
// nearly all the lookups — stays; the one-off tokens that make most of a
// corpus's vocabulary (report numbers, registrations, dates) pass through
// one row after another. Once the cache is full, caching a miss is best
// effort under concurrency (see cache); single-threaded, every miss is
// cached.
type Hash struct {
	seed int64
	dim  int

	mu   sync.RWMutex
	slab []float32                               // row r is slab[r*dim:(r+1)*dim]
	rows map[string]int                          // token -> its row
	keys []string                                // row -> its token
	refs [maxCachedDirections / 64]atomic.Uint64 // row r's reference bit is bit r%64 of refs[r/64]
	hand int                                     // the row a miss looks at first
	full atomic.Bool                             // every row holds a direction
	made atomic.Int64                            // directions generated, for tests and benchmarks
}

// maxCachedDirections bounds the direction cache: each row is Dim·4 bytes
// (4 KB), so the cache holds 2 MB at any corpus size. Embedding the chunks
// of corpus 42's 100 reports, it answers 95% of lookups
// (BenchmarkEmbedCorpus).
const maxCachedDirections = 512

// NewHash builds an embedder with the given seed. Different seeds produce
// incompatible vector spaces, like different embedding models.
func NewHash(seed int64) *Hash {
	return &Hash{seed: seed, dim: Dim}
}

// Name identifies the model.
func (h *Hash) Name() string { return "hash-minilm-sim" }

// Dim returns the vector dimensionality.
func (h *Hash) Dim() int { return h.dim }

// functionWords carry no retrieval signal and are excluded from
// embeddings, approximating the attention-weighting of a trained encoder.
var functionWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "had": true,
	"has": true, "have": true, "how": true, "in": true, "is": true,
	"it": true, "its": true, "many": true, "no": true, "not": true,
	"of": true, "on": true, "or": true, "that": true, "the": true,
	"there": true, "this": true, "to": true, "was": true, "were": true,
	"what": true, "which": true, "with": true,
}

// stem applies a light plural fold ("incidents" -> "incident"), standing
// in for the sub-word tokenization of real embedding models.
func stem(tok string) string {
	if len(tok) > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") {
		return tok[:len(tok)-1]
	}
	return tok
}

// synonymWeight is the contribution of a token's synonym directions — the
// semantic smoothing that makes "problems" land near "fault"/"failure"
// vocabulary, as a trained encoder's geometry does.
const synonymWeight = 0.35

// encoderAssociations are additional embedding-space neighborhoods beyond
// the lexical synonym table: causal/liability vocabulary clusters tightly
// in trained encoders (which is precisely why NTSB disclaimers get
// retrieved for "due to ... problems" questions, §7.2).
var encoderAssociations = map[string][]string{
	"problem":  {"fault", "blame", "liability"},
	"due":      {"cause", "caused", "because"},
	"cause":    {"fault", "blame", "due", "reason"},
	"caused":   {"cause", "fault", "due"},
	"why":      {"cause", "reason"},
	"reason":   {"cause", "why"},
	"fault":    {"blame", "cause", "liability"},
	"incident": {"accident"},
	"accident": {"incident"},
}

// Fold is how Embed reads one token of llm.Tokenize: "" for a function word,
// the plural-folded term otherwise.
func Fold(tok string) string {
	if functionWords[tok] {
		return ""
	}
	return stem(tok)
}

// Embed computes the normalized hashed bag-of-tokens vector of text. The
// zero vector is returned for token-free text.
func (h *Hash) Embed(text string) []float32 {
	vec := make([]float32, h.dim)
	eachDirection(text, func(tok string, w float32) { h.addDirection(vec, w, tok) })
	Normalize(vec)
	return vec
}

// eachDirection calls add with each token whose direction text's
// embedding sums, and its weight. Terms come in sorted order so that the
// floating-point summation is byte-reproducible across runs.
func eachDirection(text string, add func(tok string, w float32)) {
	counts := map[string]int{}
	for _, raw := range llm.Tokenize(text) {
		if term := Fold(raw); term != "" {
			counts[term]++
		}
	}
	toks := make([]string, 0, len(counts))
	for tok := range counts {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		// Sub-linear term frequency, as in standard lexical weighting.
		w := float32(1 + math.Log(float64(counts[tok])))
		add(tok, w)
		// Semantic smoothing toward synonym directions.
		syns := llm.Expand(tok)
		if len(syns) > 5 {
			syns = syns[:5]
		}
		neighbors := append(syns[1:], encoderAssociations[tok]...)
		for _, syn := range neighbors {
			for _, word := range strings.Fields(syn) {
				add(stem(word), synonymWeight*w)
			}
		}
	}
}

// kernel is whether accumulate runs simd.Axpy. It is fixed at start-up by
// the CPU; tests turn it off to hold the Go loop to the same bits.
var kernel = simd.Available()

// accumulate adds w·dir to vec, each product rounded to float32 before the
// add: simd.Axpy where the CPU has it, the Go loop — whose conversion keeps
// every GOARCH from fusing the multiply into the add — otherwise.
func accumulate(vec []float32, w float32, dir []float32) {
	if kernel {
		simd.Axpy(vec, w, dir)
		return
	}
	for i, v := range dir {
		vec[i] += float32(w * v)
	}
}

// addDirection adds w times tok's unit direction to vec. A hit reads the
// cached row under the read lock, so no miss can overwrite it meanwhile,
// and sets its reference bit if it is clear. A miss generates the
// direction into a pooled row, adds it and offers a copy to the cache.
func (h *Hash) addDirection(vec []float32, w float32, tok string) {
	h.mu.RLock()
	if r, ok := h.rows[tok]; ok {
		if ref, bit := &h.refs[r/64], uint64(1)<<(r%64); ref.Load()&bit == 0 {
			ref.Or(bit)
		}
		accumulate(vec, w, h.slab[r*h.dim:(r+1)*h.dim])
		h.mu.RUnlock()
		return
	}
	h.mu.RUnlock()
	g := generators.Get().(*generator)
	dir := g.row[:h.dim]
	g.direction(h.seed, tok, dir)
	h.made.Add(1)
	accumulate(vec, w, dir)
	h.cache(tok, dir)
	generators.Put(g)
}

// cache stores dir as tok's row: a free row while there is one, else the
// row the CLOCK hand stops at. While rows are free it waits for the lock:
// the tokens that come first are the common ones. Once the cache is full
// it is best effort: when readers or another miss hold the lock, dir is
// dropped instead of waited for. The miss is then most likely a one-off
// token, and misses that queued for the write lock stalled every embedding
// worker behind them, which cost ingest more than generating a dropped
// token again does.
func (h *Hash) cache(tok string, dir []float32) {
	if !h.full.Load() {
		h.mu.Lock()
	} else if !h.mu.TryLock() {
		return
	}
	defer h.mu.Unlock()
	if _, ok := h.rows[tok]; ok {
		return // a concurrent Embed cached it first
	}
	if h.slab == nil {
		h.slab = make([]float32, maxCachedDirections*h.dim)
		h.rows = make(map[string]int, maxCachedDirections)
		h.keys = make([]string, maxCachedDirections)
	}
	r := len(h.rows)
	if r == maxCachedDirections {
		for {
			ref, bit := &h.refs[h.hand/64], uint64(1)<<(h.hand%64)
			if ref.Load()&bit == 0 {
				break
			}
			ref.And(^bit)
			h.hand = (h.hand + 1) % maxCachedDirections
		}
		h.full.Store(true)
		r = h.hand
		h.hand = (h.hand + 1) % maxCachedDirections
		delete(h.rows, h.keys[r])
	}
	// tok may be a substring of a whole text's lowered copy
	// (llm.Tokenize): the key keeps only its own bytes.
	h.keys[r] = strings.Clone(tok)
	h.rows[h.keys[r]] = r
	copy(h.slab[r*h.dim:(r+1)*h.dim], dir)
}

// generator is the scratch a miss generates a direction in, pooled so
// that a miss allocates nothing but its cache key.
type generator struct {
	src randsrc.Source
	row [Dim]float32
}

var generators = sync.Pool{New: func() any { return new(generator) }}

// direction writes tok's unit direction in the space of seed to dir: the
// normalized first len(dir) draws of
// rand.New(rand.NewSource(seed ^ FNV-1a(tok))).NormFloat64(), each
// rounded to float32.
func (g *generator) direction(seed int64, tok string, dir []float32) {
	hash := uint64(14695981039346656037) // FNV-1a, 64-bit
	for i := 0; i < len(tok); i++ {
		hash ^= uint64(tok[i])
		hash *= 1099511628211
	}
	g.src.Seed(seed ^ int64(hash))
	randsrc.Fill(&g.src, dir)
	Normalize(dir)
}

// Normalize scales vec to unit L2 norm in place (no-op on zero vectors).
func Normalize(vec []float32) {
	var sum float64
	for _, v := range vec {
		sum += float64(float64(v) * float64(v))
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range vec {
		vec[i] *= inv
	}
}

// Cosine returns the cosine similarity of a and b (0 for mismatched or
// zero-norm inputs). For unit vectors this equals the dot product.
func Cosine(a, b []float32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(float64(a[i]) * float64(b[i]))
		na += float64(float64(a[i]) * float64(a[i]))
		nb += float64(float64(b[i]) * float64(b[i]))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
