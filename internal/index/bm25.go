package index

import (
	"math"

	"aryn/internal/llm"
)

// BM25 parameters (standard Robertson/Walker defaults, as in OpenSearch).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// bm25Index is an inverted index over chunk texts with BM25 ranking.
// Length statistics are maintained incrementally on add, so avgLen is
// O(1) at search time rather than a per-search rescan. Ordinals, term
// frequencies and lengths are uint32: a posting is 8 bytes, and an
// in-process store is far from four billion chunks.
type bm25Index struct {
	postings map[string][]posting // term -> sorted doc postings
	docLen   []uint32             // tokens per indexed chunk
	totalLen int                  // running sum of docLen
}

type posting struct {
	doc uint32 // chunk ordinal
	tf  uint32
}

func newBM25() *bm25Index {
	return &bm25Index{postings: make(map[string][]posting)}
}

// termStats is what the index keeps of one chunk's text: how often each
// term occurs and how many tokens there are.
type termStats struct {
	counts map[string]uint32
	tokens uint32
}

// countTerms tokenizes text into its termStats. It touches no index
// state, so writers run it before taking the store lock.
func countTerms(text string) termStats {
	toks := llm.Tokenize(text)
	counts := make(map[string]uint32, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	return termStats{counts: counts, tokens: uint32(len(toks))}
}

// add indexes the terms of the chunk with ordinal id. Chunks must be added
// in increasing id order (the store guarantees this).
func (ix *bm25Index) add(id int, ts termStats) {
	for t, tf := range ts.counts {
		ix.postings[t] = append(ix.postings[t], posting{doc: uint32(id), tf: tf})
	}
	for len(ix.docLen) <= id {
		ix.docLen = append(ix.docLen, 0)
	}
	ix.docLen[id] = ts.tokens
	ix.totalLen += int(ts.tokens)
}

func (ix *bm25Index) avgLen() float64 {
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// Scored is one ranked chunk hit: the chunk ordinal and its score.
type Scored struct {
	Doc   int
	Score float64
}

// search returns the top-k chunks by BM25 score for the query text. k <= 0
// means unlimited.
func (ix *bm25Index) search(query string, k int) []Scored {
	n := len(ix.docLen)
	if n == 0 {
		return nil
	}
	terms := llm.Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	avg := ix.avgLen()
	scores := map[int]float64{}
	seen := map[string]bool{}
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		plist := ix.postings[t]
		if len(plist) == 0 {
			continue
		}
		idf := math.Log(1 + (float64(n)-float64(len(plist))+0.5)/(float64(len(plist))+0.5))
		for _, p := range plist {
			tf := float64(p.tf)
			dl := float64(ix.docLen[p.doc])
			denom := tf + bm25K1*(1-bm25B+bm25B*dl/avg)
			scores[int(p.doc)] += idf * tf * (bm25K1 + 1) / denom
		}
	}
	// Bounded top-k selection instead of sorting the whole score map; the
	// (Score desc, Doc asc) total order keeps results deterministic
	// regardless of map iteration order.
	if k > 0 && k < len(scores) {
		t := newTopK(k)
		for d, s := range scores {
			t.offer(Scored{Doc: d, Score: s})
		}
		return t.take()
	}
	out := make([]Scored, 0, len(scores))
	for d, s := range scores {
		out = append(out, Scored{Doc: d, Score: s})
	}
	return selectTopK(out, 0)
}

// vocabSize reports the number of distinct indexed terms.
func (ix *bm25Index) vocabSize() int { return len(ix.postings) }
