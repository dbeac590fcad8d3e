package index

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"aryn/internal/llm"
)

// refPosting is a posting as plain (ordinal, tf) numbers: what the
// delta-uvarint lists are held to.
type refPosting struct{ doc, tf uint32 }

// refBM25 scores query over chunks (ordinal = index) with bm25Index.search's
// arithmetic in its order, from plain postings.
func refBM25(chunks []string, query string) map[int]float64 {
	postings := map[string][]refPosting{}
	docLen := make([]uint32, len(chunks))
	total := 0
	for ord, text := range chunks {
		ts := countTerms(text)
		for t, tf := range ts.counts {
			postings[t] = append(postings[t], refPosting{doc: uint32(ord), tf: tf})
		}
		docLen[ord] = ts.tokens
		total += int(ts.tokens)
	}
	n := len(chunks)
	avg := float64(total) / float64(n)
	scores := map[int]float64{}
	seen := map[string]bool{}
	for _, t := range llm.Tokenize(query) {
		if seen[t] {
			continue
		}
		seen[t] = true
		plist, ok := postings[t]
		if !ok {
			continue
		}
		idf := math.Log(1 + (float64(n)-float64(len(plist))+0.5)/(float64(len(plist))+0.5))
		for _, p := range plist {
			tf := float64(p.tf)
			dl := float64(docLen[p.doc])
			denom := tf + bm25K1*(1-bm25B+bm25B*dl/avg)
			scores[int(p.doc)] += idf * tf * (bm25K1 + 1) / denom
		}
	}
	return scores
}

// postingWords are the words fuzzed chunks are made of; a byte picks one,
// and the last, "", ends the chunk.
var postingWords = []string{"engine", "power", "loss", "field", "pilot", "wing", "fuel", ""}

// FuzzPostings reads its input twice. As uvarint (gap, tf-1) pairs it is
// an ascending posting list with every tf ≥ 1, which must decode back
// exactly; as words it is a run of chunks, whose BM25 scores must be the
// reference scorer's to the bit.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 4, 200, 1, 0})
	f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{3, 0}, math.MaxUint32-4), math.MaxUint32-1))
	f.Add([]byte{0, 1, 7, 0, 0, 2, 7, 6, 5, 4, 3, 7, 1, 1, 1, 1, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []refPosting
		var list postingList
		for rest := data; ; {
			gap, k := binary.Uvarint(rest)
			if k <= 0 {
				break
			}
			tf, m := binary.Uvarint(rest[k:])
			if m <= 0 {
				break
			}
			rest = rest[k+m:]
			doc := gap
			if len(want) > 0 {
				doc += uint64(want[len(want)-1].doc) + 1
			}
			if doc > math.MaxUint32 || tf >= math.MaxUint32 {
				break
			}
			want = append(want, refPosting{doc: uint32(doc), tf: uint32(tf) + 1})
			list.add(uint32(doc), uint32(tf)+1)
		}
		var got []refPosting
		for doc, tf := range list.all() {
			got = append(got, refPosting{doc: doc, tf: tf})
		}
		if len(got) != len(want) || int(list.n) != len(want) {
			t.Fatalf("%d postings added, list counts %d and yields %d", len(want), list.n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("posting %d decodes as %+v, want %+v", i, got[i], want[i])
			}
		}
		if len(want) > 0 && list.last != want[len(want)-1].doc {
			t.Fatalf("last = %d, want %d", list.last, want[len(want)-1].doc)
		}

		chunks := []string{""}
		for _, b := range data {
			if w := postingWords[int(b)%len(postingWords)]; w != "" {
				chunks[len(chunks)-1] += w + " "
			} else {
				chunks = append(chunks, "")
			}
		}
		ix := newBM25()
		for ord, text := range chunks {
			ix.add(ord, countTerms(text))
		}
		for _, q := range []string{"engine", "loss of engine power", strings.Join(postingWords, " "), "absent"} {
			ref := refBM25(chunks, q)
			hits := ix.search(q, 0)
			if len(hits) != len(ref) {
				t.Fatalf("%q: %d hits, the reference scores %d chunks", q, len(hits), len(ref))
			}
			for _, h := range hits {
				if r, ok := ref[h.Doc]; !ok || math.Float64bits(h.Score) != math.Float64bits(r) {
					t.Fatalf("%q: chunk %d scores %v, the reference %v", q, h.Doc, h.Score, r)
				}
			}
		}
	})
}
