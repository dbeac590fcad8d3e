package index_test

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/embed"
	"aryn/internal/index"
)

// The two golden files pin retrieval to the bit. The embeddings and the
// keyword rankings were captured at the commit before the direction cache
// was bounded, the postings narrowed and the exact scan unrolled (PR 16);
// the vector and hybrid rankings when rows became 16-bit codes scored in
// integers (PR 23: same hits, scores moved by at most a few 1e-6). Every
// later change to internal/embed or internal/index must leave them as they
// are:
//
//   - testdata/embed_golden.txt: FNV-64a of the bytes of Embed(text) for
//     every chunk text of ntsb.GenerateCorpus(30, 42) and every query
//     below, one "index hash" line each.
//   - testdata/search_golden.txt: for every query × mode, the hit count,
//     the first hit and FNV-64a over the (ordinal, Float64bits(score))
//     pairs of the whole ranking through Store.SearchChunks.
//
// -update rewrites them; that is only legitimate when the embedding or
// the scoring is meant to change.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var goldenQueries = []string{
	"engine failure during landing",
	"loss of engine power in cruise",
	"bird strike after takeoff",
	"fuel exhaustion and forced landing",
	"gusty crosswind loss of directional control",
	"post-crash fire consumed the fuselage",
	"icing conditions on approach",
	"landing gear collapse on the runway",
	"pilot spatial disorientation at night",
	"collision with terrain in mountainous area",
	"substantial damage to the left wing",
	"student pilot hard landing",
	"helicopter tail rotor failure",
	"carburetor ice",
	"maintenance error improper installation",
	"runway excursion wet runway",
	"midair collision",
	"water contamination in the fuel",
	"Find reports about wind shear",
	"accidents in Kentucky involving Cessna",
	"What was the probable cause?",
	"destroyed aircraft registration numbers",
	"instrument meteorological conditions low visibility",
	"propeller strike during taxi",
}

// goldenChunkTexts runs the model-free half of the ingest pipeline over
// the 30-accident corpus and returns chunk texts with their parent IDs in
// the executor's deterministic order: the 120-token merged chunks ingest
// indexes, then the unmerged elements (shorter texts, more ties).
func goldenChunkTexts(t *testing.T) (texts, parents []string) {
	t.Helper()
	exploded := docset.ReadBinary(docset.NewContext(), corpusBlobs(t, 30, 42)).Partition(docparse.New()).Explode()
	for _, ds := range []*docset.DocSet{exploded.MergeChunks(120), exploded} {
		chunks, err := ds.TakeAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			texts = append(texts, c.Text)
			parents = append(parents, c.ParentID)
		}
	}
	if len(texts) < 200 {
		t.Fatalf("only %d chunk texts, the goldens want at least 200", len(texts))
	}
	return texts, parents
}

func vectorHash(vec []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vec {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
	}
	diffs := 0
	for i := range gl {
		if gl[i] != wl[i] {
			if diffs++; diffs <= 5 {
				t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
	}
	t.Errorf("%s: %d of %d lines differ", path, diffs, len(gl))
}

func TestEmbedMatchesGolden(t *testing.T) {
	texts, _ := goldenChunkTexts(t)
	em := embed.NewHash(7)
	var b strings.Builder
	for i, text := range append(texts, goldenQueries...) {
		fmt.Fprintf(&b, "%03d %016x\n", i, vectorHash(em.Embed(text)))
	}
	checkGolden(t, "testdata/embed_golden.txt", b.String())
}

// goldenStore indexes the golden chunk texts, each under its ordinal as ID,
// so hits name the ordinal the store assigned.
func goldenStore(t *testing.T) *index.Store {
	t.Helper()
	texts, parents := goldenChunkTexts(t)
	em := embed.NewHash(7)
	store := index.NewStore()
	for i, text := range texts {
		err := store.PutChunk(index.Chunk{ID: strconv.Itoa(i), ParentID: parents[i], Text: text, Vector: em.Embed(text)})
		if err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// goldenSearches runs every golden query in every mode and renders each
// ranking as one line: hit count, first hit, FNV-64a over the whole list.
func goldenSearches(store *index.Store) string {
	em := embed.NewHash(7)
	var b strings.Builder
	for qi, q := range goldenQueries {
		vec := em.Embed(q)
		modes := []struct {
			name  string
			query index.Query
		}{
			// K 80 over-fetches 640 of the 911 chunks through the bounded
			// top-k scan; K 0 ranks every chunk.
			{"vector", index.Query{Vector: vec, K: 80}},
			{"vectorAll", index.Query{Vector: vec}},
			{"keyword", index.Query{Keyword: q, K: 80}},
			{"hybrid", index.Query{Keyword: q, Vector: vec, K: 80}},
			{"hybrid10", index.Query{Keyword: q, Vector: vec, K: 10}},
		}
		for _, m := range modes {
			hits := store.SearchChunks(m.query)
			h := fnv.New64a()
			var buf [8]byte
			for _, hit := range hits {
				ord, _ := strconv.Atoi(hit.Chunk.ID)
				binary.LittleEndian.PutUint64(buf[:], uint64(ord))
				h.Write(buf[:])
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(hit.Score))
				h.Write(buf[:])
			}
			first := "-"
			if len(hits) > 0 {
				first = fmt.Sprintf("%s:%016x", hits[0].Chunk.ID, math.Float64bits(hits[0].Score))
			}
			fmt.Fprintf(&b, "q%02d %-9s n=%d first=%s fnv=%016x\n", qi, m.name, len(hits), first, h.Sum64())
		}
	}
	return b.String()
}

func TestSearchMatchesGolden(t *testing.T) {
	checkGolden(t, "testdata/search_golden.txt", goldenSearches(goldenStore(t)))
}

// A snapshot carries each chunk's decoded row, and Load encodes it again:
// for every chunk of the golden corpus that gives back the codes and the
// multiplier the saved store held, so the loaded store answers every golden
// search with the same hits at the same score bits.
func TestSaveLoadKeepsEveryRowAndScore(t *testing.T) {
	saved := goldenStore(t)
	path := filepath.Join(t.TempDir(), "store.gob.gz")
	if err := saved.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantCodes, wantMuls := index.Rows(saved)
	gotCodes, gotMuls := index.Rows(loaded)
	if len(gotCodes) != len(wantCodes) || len(wantCodes) != saved.NumChunks() {
		t.Fatalf("%d rows loaded, %d saved, %d chunks", len(gotCodes), len(wantCodes), saved.NumChunks())
	}
	for i := range wantCodes {
		if !slices.Equal(gotCodes[i], wantCodes[i]) || gotMuls[i] != wantMuls[i] {
			t.Fatalf("row %d came back as other codes (mul %v, saved %v)", i, gotMuls[i], wantMuls[i])
		}
	}
	if got, want := goldenSearches(loaded), goldenSearches(saved); got != want {
		t.Error("the loaded store ranks or scores differently from the saved one")
	}
}
