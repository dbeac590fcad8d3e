package index_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/embed"
	"aryn/internal/index"
	"aryn/internal/ntsb"
)

// corpusBlobs is the raw reports of corpus (n, seed).
func corpusBlobs(t *testing.T, n int, seed int64) map[string][]byte {
	t.Helper()
	corpus, err := ntsb.GenerateCorpus(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	return blobs
}

// parsedReports is corpus (n, seed) as DocParse hands it to the rest of
// ingest: whole layout trees, no model involved.
func parsedReports(t *testing.T, n int, seed int64) []*docmodel.Document {
	t.Helper()
	docs, err := docset.ReadBinary(docset.NewContext(), corpusBlobs(t, n, seed)).Partition(docparse.New()).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// Every prompt, every cascade score and every scoped extract is cut from
// the stored document's TextContent, Sections and EmbeddingText, and filter
// verdicts hang on prompt bytes: for every report of the benchmark's two
// corpora, what the store holds reads exactly as what DocParse produced.
func TestStoredReportReadsAsParsed(t *testing.T) {
	for _, seed := range []int64{42, 43} {
		store := index.NewStore()
		tables, pictures := 0, 0
		for _, d := range parsedReports(t, 100, seed) {
			if err := store.PutDocument(d); err != nil {
				t.Fatal(err)
			}
			stored, _ := store.Document(d.ID)
			if got, want := stored.TextContent(), d.TextContent(); got != want {
				t.Fatalf("corpus %d, %s: TextContent\n%q\nwant\n%q", seed, d.ID, got, want)
			}
			if got, want := stored.Sections(), d.Sections(); !slices.Equal(got, want) {
				t.Fatalf("corpus %d, %s: Sections\n%q\nwant\n%q", seed, d.ID, got, want)
			}
			if got, want := stored.EmbeddingText(), d.EmbeddingText(); got != want {
				t.Fatalf("corpus %d, %s: EmbeddingText differs", seed, d.ID)
			}
			if got, want := stored.Summary(), d.Summary(); got != want {
				t.Fatalf("corpus %d, %s: Summary %q, want %q", seed, d.ID, got, want)
			}
			tables += len(d.ElementsOfType(docmodel.Table))
			pictures += len(d.ElementsOfType(docmodel.Picture))
		}
		if store.NumDocs() < 100 || tables == 0 || pictures == 0 {
			t.Errorf("corpus %d: %d reports, %d tables, %d pictures: the corpus no longer exercises the view", seed, store.NumDocs(), tables, pictures)
		}
	}
}

// The store keeps type, page and text per element and nothing of DocParse's
// layout: a field added to what PutDocument keeps shows here before it shows
// as live_heap_mb.
func TestStoredElementCarriesNoLayout(t *testing.T) {
	store := index.NewStore()
	layout := 0
	for _, d := range parsedReports(t, 5, 42) {
		d.Binary = []byte("raw bytes DocParse has already consumed")
		for _, e := range d.AllElements() {
			if e.Table != nil || e.Image != nil || e.Box != (docmodel.BBox{}) || e.Confidence != 0 {
				layout++
			}
		}
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	if layout == 0 {
		t.Fatal("the parsed reports carry no layout: nothing to drop")
	}
	for _, d := range store.Documents() {
		d.Walk(func(n *docmodel.Document) bool {
			if n.Binary != nil {
				t.Errorf("%s: stored with its raw binary", n.ID)
			}
			for i, e := range n.Elements {
				want := docmodel.Element{Type: e.Type, Page: e.Page, Text: e.Text}
				if !reflect.DeepEqual(*e, want) {
					t.Errorf("%s element %d keeps more than type, page and text: %+v", n.ID, i, *e)
				}
			}
			return true
		})
	}
}

// testdata/snapshot_pr21.gob.gz is what Store.Save wrote at the last commit
// that stored DocParse's whole element trees (PR 21): 3 reports of corpus 42
// ingested by core.New(core.Config{Seed: 7}). It loads into the store a
// fresh ingest of the same reports builds.
func TestLoadsSnapshotWithFullElementTrees(t *testing.T) {
	loaded, err := index.Load("testdata/snapshot_pr21.gob.gz")
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7})
	if _, err := sys.Ingest(context.Background(), corpusBlobs(t, 3, 42)); err != nil {
		t.Fatal(err)
	}
	fresh := sys.Store

	if loaded.NumDocs() != 3 || loaded.NumDocs() != fresh.NumDocs() || loaded.NumChunks() != fresh.NumChunks() {
		t.Fatalf("loaded %d docs, %d chunks; fresh ingest %d, %d", loaded.NumDocs(), loaded.NumChunks(), fresh.NumDocs(), fresh.NumChunks())
	}
	for i, want := range fresh.Documents() {
		got := loaded.Documents()[i]
		if got.ID != want.ID || got.Title != want.Title || got.Path != want.Path {
			t.Fatalf("document %d: %s %q, want %s %q", i, got.ID, got.Title, want.ID, want.Title)
		}
		if got.TextContent() != want.TextContent() || !slices.Equal(got.Sections(), want.Sections()) {
			t.Errorf("%s: text differs from a fresh ingest's", got.ID)
		}
		if !got.Properties.Equal(want.Properties) || len(got.Properties) == 0 {
			t.Errorf("%s: properties %s, want %s", got.ID, got.Properties.JSON(), want.Properties.JSON())
		}
		for _, e := range got.AllElements() {
			if e.Table != nil || e.Image != nil || e.Box != (docmodel.BBox{}) {
				t.Fatalf("%s: the loaded store keeps layout the snapshot held", got.ID)
			}
		}
	}

	// Chunks reach the store from parallel workers and equal scores rank in
	// arrival order, so chunks are compared as a set of scores; hybrid
	// search, which scores by rank, is a function of the two rankings here.
	for _, q := range []string{"loss of engine power in cruise", "bird strike after takeoff", "substantial damage to the left wing"} {
		vec := embed.NewHash(7).Embed(q)
		for name, query := range map[string]index.Query{
			"keyword": {Keyword: q},
			"vector":  {Vector: vec},
			"filter":  {Filter: index.Term("us_state", fresh.Documents()[0].Property("us_state"))},
		} {
			if got, want := docHits(loaded.SearchDocs(query)), docHits(fresh.SearchDocs(query)); !slices.Equal(got, want) || len(got) == 0 {
				t.Errorf("%s %q: documents %v, want %v", name, q, got, want)
			}
			if got, want := chunkHits(loaded.SearchChunks(query)), chunkHits(fresh.SearchChunks(query)); !slices.Equal(got, want) || len(got) == 0 {
				t.Errorf("%s %q: chunks %v, want %v", name, q, got, want)
			}
		}
	}
}

func docHits(hits []index.DocHit) []string {
	var out []string
	for _, h := range hits {
		out = append(out, fmt.Sprintf("%s:%v", h.Doc.ID, h.Score))
	}
	return out
}

func chunkHits(hits []index.ChunkHit) []string {
	var out []string
	for _, h := range hits {
		out = append(out, fmt.Sprintf("%s:%s:%v", h.Chunk.ID, h.Chunk.Text, h.Score))
	}
	slices.Sort(out)
	return out
}
