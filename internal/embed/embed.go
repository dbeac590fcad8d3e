package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"aryn/internal/llm"
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

// Hash is the hashed bag-of-tokens embedder. Token directions are pure
// functions of (seed, token), so they are memoized in a bounded cache
// (maxCachedDirections): a token seen recently reuses its unit direction
// instead of paying for the Gaussian generation again — per chunk at
// ingest, per query at ask-time. Safe for concurrent use.
type Hash struct {
	seed int64
	dim  int

	mu   sync.RWMutex
	dirs map[string][]float32 // token -> cached unit direction (read-only)
}

// NewHash builds an embedder with the given seed. Different seeds produce
// incompatible vector spaces, like different embedding models.
func NewHash(seed int64) *Hash {
	return &Hash{seed: seed, dim: Dim, dirs: make(map[string][]float32)}
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
// zero vector is returned for token-free text. Tokens accumulate in sorted
// order so floating-point summation is byte-reproducible across runs.
func (h *Hash) Embed(text string) []float32 {
	vec := make([]float32, h.dim)
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
		dir := h.tokenDirection(tok)
		for i, v := range dir {
			vec[i] += w * v
		}
		// Semantic smoothing toward synonym directions.
		syns := llm.Expand(tok)
		if len(syns) > 5 {
			syns = syns[:5]
		}
		neighbors := append(syns[1:], encoderAssociations[tok]...)
		for _, syn := range neighbors {
			for _, word := range strings.Fields(syn) {
				sdir := h.tokenDirection(stem(word))
				for i, v := range sdir {
					vec[i] += synonymWeight * w * v
				}
			}
		}
	}
	Normalize(vec)
	return vec
}

// tokenDirection derives the token's unit direction from its hash,
// memoizing the result. Cached slices are shared and must not be written.
func (h *Hash) tokenDirection(tok string) []float32 {
	h.mu.RLock()
	dir, ok := h.dirs[tok]
	h.mu.RUnlock()
	if ok {
		return dir
	}
	hs := fnv.New64a()
	hs.Write([]byte(tok))
	rng := rand.New(rand.NewSource(h.seed ^ int64(hs.Sum64())))
	dir = make([]float32, h.dim)
	for i := range dir {
		dir[i] = float32(rng.NormFloat64())
	}
	Normalize(dir)
	h.mu.Lock()
	if prior, ok := h.dirs[tok]; ok {
		dir = prior // a concurrent Embed won the race; share its slice
	} else {
		if len(h.dirs) >= maxCachedDirections {
			h.dirs = make(map[string][]float32, maxCachedDirections)
		}
		h.dirs[tok] = dir
	}
	h.mu.Unlock()
	return dir
}

// maxCachedDirections bounds the direction cache. Each entry costs
// Dim*4 bytes (4 KB), so the cache holds at most 8 MB at any corpus size.
// Most distinct tokens of a corpus are looked up once — report numbers,
// registrations, dates — and a few hundred words make nearly all the
// hits, so when the cache is full it starts over empty rather than
// freezing on whichever tokens arrived first: the hot vocabulary refills
// in a few milliseconds, once per ~1,400 new long-tail tokens. A
// direction is a pure function of (seed, token), so dropping one never
// changes an embedding.
const maxCachedDirections = 2048

// Normalize scales vec to unit L2 norm in place (no-op on zero vectors).
func Normalize(vec []float32) {
	var sum float64
	for _, v := range vec {
		sum += float64(v) * float64(v)
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
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
