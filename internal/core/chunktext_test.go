package core_test

import (
	"context"
	"maps"
	"strings"
	"testing"
	"unsafe"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/ntsb"
)

// TestChunkTextSharesReportText holds the store to keeping a report's text
// once. It ingests the 100-accident corpus 42 and checks every stored chunk:
// its text is the one MergeChunks cut, and its bytes lie inside its parent's
// stored string — the one TextView lays out, which the stored view's
// element texts slice. A MergeChunks or TextView change that makes a chunk's
// text stop being found in its report's string doubles the text the store
// keeps, and fails here.
func TestChunkTextSharesReportText(t *testing.T) {
	ctx := context.Background()
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(ctx, blobs); err != nil {
		t.Fatal(err)
	}
	ec := docset.NewContext()
	reports, err := docset.ReadBinary(ec, blobs).Partition(sys.Parser).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := docset.FromDocuments(ec, reports).MergeChunks(120).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, c := range merged {
		want[c.ID] = c.Text
	}

	// Where each report's stored string starts, and its bytes: the stored
	// view's element texts lie in it where TextView lays them out.
	type shared struct {
		base uintptr
		text string
	}
	strs := map[string]shared{}
	stored := map[string]*docmodel.Document{}
	for _, d := range sys.Store.Documents() {
		stored[d.ID] = d
	}
	for _, r := range reports {
		view, text := r.TextView(nil)
		got := stored[r.ID].AllElements()
		s := shared{text: text}
		for i, e := range view.AllElements() {
			at, in := offsetIn(e.Text, text)
			if !in {
				continue // a picture's annotation: a string of its own
			}
			if s.base == 0 {
				s.base = addr(got[i].Text) - at
			}
			if addr(got[i].Text)-s.base != at || got[i].Text != e.Text {
				t.Fatalf("%s: stored element %d is not where TextView lays it out", r.ID, i)
			}
		}
		strs[r.ID] = s
	}

	chunks := sys.Store.SearchChunks(index.Query{})
	if len(chunks) != len(want) {
		t.Fatalf("%d chunks stored, MergeChunks cut %d", len(chunks), len(want))
	}
	sharing := 0
	for _, h := range chunks {
		c := h.Chunk
		if w, ok := want[c.ID]; !ok || c.Text != w {
			t.Fatalf("chunk %s: text %q, MergeChunks cut %q", c.ID, c.Text, w)
		}
		s := strs[c.ParentID]
		if at := addr(c.Text) - s.base; c.Text != "" && len(c.Text) <= len(s.text) && at <= uintptr(len(s.text)-len(c.Text)) && strings.HasPrefix(s.text[at:], c.Text) {
			sharing++
		}
	}
	t.Logf("%d of %d chunks share their report's string", sharing, len(chunks))
	if sharing != len(chunks) {
		t.Errorf("%d of %d chunks share their report's string, want all", sharing, len(chunks))
	}
}

// addr is where s's bytes start.
func addr(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// offsetIn reports where the non-empty s lies in whole, when its bytes are
// some of whole's.
func offsetIn(s, whole string) (uintptr, bool) {
	if s == "" || whole == "" {
		return 0, false
	}
	at := addr(s) - addr(whole)
	return at, len(s) <= len(whole) && at <= uintptr(len(whole)-len(s)) && strings.HasPrefix(whole[at:], s)
}

// TestChunkIDsArePerReport holds a chunk's identity to its own report: it
// ingests corpus 42 alone, then together with corpus 43 re-keyed to sort
// before it, and requires every corpus-42 chunk to have the same ID, text
// and page in both stores. A chunker that numbered passages across the
// whole upload would shift every corpus-42 ID by the chunks before it.
func TestChunkIDsArePerReport(t *testing.T) {
	ctx := context.Background()
	blobs := func(seed int64) map[string][]byte {
		corpus, err := ntsb.GenerateCorpus(100, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := corpus.Blobs()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	type chunk struct {
		text string
		page int
	}
	ingest := func(blobs map[string][]byte) map[string]chunk {
		sys := core.New(core.Config{Seed: 7, Parallelism: 4})
		if _, err := sys.Ingest(ctx, blobs); err != nil {
			t.Fatal(err)
		}
		out := map[string]chunk{}
		for _, h := range sys.Store.SearchChunks(index.Query{}) {
			out[h.Chunk.ID] = chunk{h.Chunk.Text, h.Chunk.Page}
		}
		return out
	}

	alone := blobs(42)
	both := maps.Clone(alone)
	for id, b := range blobs(43) {
		both["0-"+id] = b // sorts before every corpus-42 ID
	}
	want, got := ingest(alone), ingest(both)
	if len(got) <= len(want) {
		t.Fatalf("%d chunks with corpus 43, %d without", len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			t.Fatalf("chunk %s alone: page %d %q; beside corpus 43: present %v, page %d %q", id, w.page, w.text, ok, g.page, g.text)
		}
	}
}
