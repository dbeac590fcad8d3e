package docmodel_test

import (
	"context"
	"fmt"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/ntsb"
)

// Every report the store keeps, over the corpora of seeds 42 to 45, reads
// as the reference view of the report DocParse produced: TextContent,
// Sections, Lines, EmbeddingText, PageCount and its JSON (an SSE partial
// event's bytes), byte for byte.
func TestStoredViewsReadAsTheReference(t *testing.T) {
	for _, seed := range []int64{42, 43, 44, 45} {
		t.Run(fmt.Sprintf("corpus %d", seed), func(t *testing.T) {
			corpus, err := ntsb.GenerateCorpus(100, seed)
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := corpus.Blobs()
			if err != nil {
				t.Fatal(err)
			}
			reports, err := docset.ReadBinary(docset.NewContext(), blobs).Partition(docparse.New()).TakeAll(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			store := index.NewStore()
			for _, d := range reports {
				if err := store.PutDocument(d); err != nil {
					t.Fatal(err)
				}
			}
			stored := map[string]*docmodel.Document{}
			for _, d := range store.Documents() {
				stored[d.ID] = d
			}
			for _, d := range reports {
				ref, _ := docmodel.ReferenceTextView(d)
				if diff := docmodel.ViewDiff(stored[d.ID], ref); diff != "" {
					t.Fatalf("%s: the stored view reads differently from the reference: %s", d.ID, diff)
				}
			}
			if len(stored) != len(reports) || len(reports) < 100 {
				t.Errorf("%d reports stored of %d", len(stored), len(reports))
			}
		})
	}
}
