package index_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docparse"
	"aryn/internal/docset"
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

// Every prompt, every scoped filter and every scoped extract is cut from the
// stored document's TextContent, Sections, Lines and EmbeddingText:
// for every report of the benchmark's two corpora, what the store holds
// reads exactly as what DocParse produced.
func TestStoredReportReadsAsParsed(t *testing.T) {
	for _, seed := range []int64{42, 43} {
		store := index.NewStore()
		tables, pictures := 0, 0
		for _, d := range parsedReports(t, 100, seed) {
			if err := store.PutDocument(d); err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(store.Documents(), func(s *docmodel.Document) bool { return s.ID == d.ID })
			stored := store.Documents()[i]
			if got, want := stored.TextContent(), d.TextContent(); got != want {
				t.Fatalf("corpus %d, %s: TextContent\n%q\nwant\n%q", seed, d.ID, got, want)
			}
			if got, want := stored.Sections(), d.Sections(); !slices.Equal(got, want) {
				t.Fatalf("corpus %d, %s: Sections\n%q\nwant\n%q", seed, d.ID, got, want)
			}
			if got, want := stored.Lines(), d.Lines(); !slices.Equal(got, want) {
				t.Fatalf("corpus %d, %s: Lines\n%+v\nwant\n%+v", seed, d.ID, got, want)
			}
			if got, want := stored.EmbeddingText(), d.EmbeddingText(); got != want {
				t.Fatalf("corpus %d, %s: EmbeddingText differs", seed, d.ID)
			}
			if got, want := len(stored.AllElements()), len(d.AllElements()); got != want {
				t.Fatalf("corpus %d, %s: %d elements, want %d", seed, d.ID, got, want)
			}
			for _, e := range d.AllElements() {
				switch e.Type {
				case docmodel.Table:
					tables++
				case docmodel.Picture:
					pictures++
				}
			}
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

func chunkHits(hits []index.ChunkHit) []string {
	var out []string
	for _, h := range hits {
		out = append(out, fmt.Sprintf("%s:%s:%v", h.Chunk.ID, h.Chunk.Text, h.Score))
	}
	slices.Sort(out)
	return out
}
