package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"aryn/internal/index"
	"aryn/internal/ntsb"
)

// The retrieval-heavy benchmark's topic pool: what happened × where.
var (
	fidelityEvents = []string{
		"engine failure", "loss of engine power", "fuel exhaustion", "bird strike",
		"landing gear collapse", "hard landing", "runway excursion", "loss of control",
		"carburetor icing", "a post-crash fire", "a midair collision", "a stall and spin",
		"a wire strike", "gusting crosswind", "a tailwind landing", "fuel contamination",
		"a bounced landing", "controlled flight into terrain", "a propeller strike", "an aborted takeoff",
	}
	fidelityContexts = []string{
		"during takeoff", "on final approach", "in cruise flight", "during a go-around",
		"at night", "in instrument conditions", "during an instructional flight", "over water",
		"in mountainous terrain", "during an agricultural flight", "after maintenance", "in gusty wind",
	}
)

// TestVectorFidelity is what a chunk vector's 16-bit row costs in ranking,
// as a number. It ingests the 1,500-accident corpus 42, asks the store for
// the top 10 chunks of each of the 240 event × context topics, and compares
// them with the ranking the embeddings themselves give: a float64 dot of
// Embed(topic) with Embed of every chunk's text, never rounded to the
// store's row format. At least 2,395 of the 2,400 entries hold the same chunk
// at the same position and no score lies further than 1e-5 from its cosine
// (2,400 and 3.3e-6 as written; corpus 43 reads 2,398 and 4.0e-6). A narrower
// row type, a coarser query grid or a reordered sum reads as a diff to these
// two bounds.
func TestVectorFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests the 1,500-accident corpus")
	}
	corpus, err := ntsb.GenerateCorpus(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}

	chunks := sys.Store.SearchChunks(index.Query{}) // every chunk, in index order
	ordinal := make(map[string]int, len(chunks))
	vecs := make([][]float32, len(chunks))
	for i, ch := range chunks {
		ordinal[ch.Chunk.ID] = i
		vecs[i] = sys.Embedder.Embed(ch.Chunk.Text)
	}
	if len(ordinal) != len(chunks) || len(chunks) < 5000 {
		t.Fatalf("%d chunks under %d IDs: the comparison needs them many and distinct", len(chunks), len(ordinal))
	}

	var same int      // top-10 entries holding the chunk the embeddings rank there
	var shift float64 // the furthest a returned chunk's score lies from its cosine
	cosines := make([]float64, len(chunks))
	order := make([]int, len(chunks))
	for _, event := range fidelityEvents {
		for _, where := range fidelityContexts {
			topic := event + " " + where
			q := sys.Embedder.Embed(topic)
			for i, v := range vecs {
				var dot float64 // Embed emits unit vectors: the dot is the cosine
				for j, x := range q {
					dot += float64(x) * float64(v[j])
				}
				cosines[i], order[i] = dot, i
			}
			sort.Slice(order, func(a, b int) bool {
				if cosines[order[a]] != cosines[order[b]] {
					return cosines[order[a]] > cosines[order[b]]
				}
				return order[a] < order[b]
			})
			hits := sys.Store.SearchChunks(index.Query{Vector: q, K: 10})
			if len(hits) != 10 {
				t.Fatalf("%q: %d hits", topic, len(hits))
			}
			for rank, h := range hits {
				ord := ordinal[h.Chunk.ID]
				if ord == order[rank] {
					same++
				}
				shift = max(shift, math.Abs(h.Score-cosines[ord]))
			}
		}
	}
	t.Logf("%d of 2400 top-10 entries at the same position, largest score shift %.2g", same, shift)
	if same < 2395 {
		t.Errorf("%d of 2400 top-10 entries at the position the embeddings give, want at least 2395", same)
	}
	if shift > 1e-5 {
		t.Errorf("a score lies %.3g from its cosine, want at most 1e-5", shift)
	}
}
