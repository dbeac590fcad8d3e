package index

import (
	"encoding/binary"
	"iter"
	"math"
	"strings"

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
// frequencies and lengths are uint32 (an in-process store is far from four
// billion chunks), and a posting is delta-uvarint bytes: two or three of
// them for most terms of a corpus.
type bm25Index struct {
	// terms numbers the vocabulary (postings[terms[t]] are term t's
	// postings). A term is stored once, cloned: assigning a map entry
	// again would make the key a substring of the newest chunk's lowered
	// text (llm.Tokenize) and keep that whole text alive.
	terms    map[string]uint32
	postings []postingList
	docLen   []uint32 // tokens per indexed chunk
	totalLen int      // running sum of docLen
}

// postingList is one term's postings in ascending chunk ordinal: n pairs
// of uvarints, the ordinal's distance from the one before (from 0 for the
// first) and the term's frequency in that chunk. last is the newest
// ordinal, the base of the next distance.
type postingList struct {
	data    []byte
	n, last uint32
}

// add appends the posting of chunk doc, which must follow every ordinal
// already in the list.
func (p *postingList) add(doc, tf uint32) {
	delta := doc
	if p.n > 0 {
		delta -= p.last
	}
	p.data = binary.AppendUvarint(p.data, uint64(delta))
	p.data = binary.AppendUvarint(p.data, uint64(tf))
	p.n++
	p.last = doc
}

// all yields every (ordinal, tf) posting of the list in order.
func (p *postingList) all() iter.Seq2[uint32, uint32] {
	return func(yield func(doc, tf uint32) bool) {
		data, doc := p.data, uint32(0)
		for range p.n {
			delta, k := binary.Uvarint(data)
			tf, m := binary.Uvarint(data[k:])
			data = data[k+m:]
			doc += uint32(delta)
			if !yield(doc, uint32(tf)) {
				return
			}
		}
	}
}

func newBM25() *bm25Index {
	return &bm25Index{terms: make(map[string]uint32)}
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
		term, ok := ix.terms[t]
		if !ok {
			term = uint32(len(ix.postings))
			ix.terms[strings.Clone(t)] = term
			ix.postings = append(ix.postings, postingList{})
		}
		ix.postings[term].add(uint32(id), tf)
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
		term, ok := ix.terms[t]
		if !ok {
			continue
		}
		plist := &ix.postings[term]
		df := float64(plist.n)
		idf := math.Log(1 + (float64(n)-df+0.5)/(df+0.5))
		for doc, f := range plist.all() {
			tf := float64(f)
			dl := float64(ix.docLen[doc])
			denom := tf + float64(bm25K1*(1-bm25B+bm25B*dl/avg))
			scores[int(doc)] += idf * tf * (bm25K1 + 1) / denom
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
