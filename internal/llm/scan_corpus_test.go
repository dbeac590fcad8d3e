package llm_test

import (
	"context"
	"testing"

	"aryn/internal/core"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
)

// TestScannersOnCorpus holds the Sim's text scanners to the expressions
// they replace over the text of every report of corpora 42 and 43, the
// text its extract and filter skills read.
func TestScannersOnCorpus(t *testing.T) {
	for _, seed := range []int64{42, 43} {
		corpus, err := ntsb.GenerateCorpus(100, seed)
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := corpus.Blobs()
		if err != nil {
			t.Fatal(err)
		}
		sys := core.New(core.Config{Seed: 7, Parallelism: 4})
		if _, err := sys.Ingest(context.Background(), blobs); err != nil {
			t.Fatal(err)
		}
		for _, h := range sys.Store.SearchDocs(index.Query{}) {
			if err := llm.CheckScanners(h.Doc.TextContent()); err != nil {
				t.Fatalf("corpus %d, %s: %v", seed, h.Doc.ID, err)
			}
		}
	}
}
