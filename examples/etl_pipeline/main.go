// ETL pipeline: the paper's Figure 4 script, in Go. Reads raw binaries,
// partitions them with DocParse, extracts a three-field schema with an
// LLM (Figure 5 shows the output), cuts each report into chunks, embeds
// them, and writes everything to an index — with an intermediate
// materialization for debugging (§5.3).
//
//	go run ./examples/etl_pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"aryn/internal/core"
	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
)

func main() {
	ctx := context.Background()

	corpus, err := ntsb.GenerateCorpus(10, 3)
	if err != nil {
		log.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		log.Fatal(err)
	}

	// The Figure 4 schema.
	schema := []llm.FieldSpec{
		{Name: "us_state", Type: "string"},
		{Name: "probable_cause", Type: "string"},
		{Name: "weather_related", Type: "bool"},
	}

	ec := docset.NewContext(docset.WithLLM(llm.NewSim(7)), docset.WithParallelism(4))
	store := index.NewStore()
	cache := docset.NewMemoryCache()

	ds := docset.ReadBinary(ec, blobs).
		Partition(docparse.New()).
		LLMExtract(schema).
		MaterializeMemory(cache, "post-extract"). // inspect intermediates (§5.3)
		Write(store).
		MergeChunks(120).
		Embed().
		Write(store)

	fmt.Println("pipeline:")
	fmt.Println(ds.PlanString())
	fmt.Println()

	docs, trace, err := ds.Execute(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: %d chunks indexed, %d parent docs\n\n", len(docs), store.NumDocs())
	fmt.Println("per-operator trace:")
	fmt.Print(trace.String())

	// Figure 5: the llmExtract output for the first document.
	if snap, ok := cache.Get("post-extract"); ok && len(snap) > 0 {
		d := snap[0]
		fmt.Printf("\nllmExtract output for %s (Figure 5):\n", d.ID)
		out := map[string]any{}
		for _, f := range schema {
			if v, ok := d.Properties.Get(f.Name); ok {
				out[f.Name] = v
			}
		}
		for _, k := range []string{"us_state", "probable_cause", "weather_related"} {
			fmt.Printf("  %-16s %v\n", k+":", out[k])
		}
	}

	// The store is now queryable.
	hits := store.SearchDocs(index.Query{Keyword: "engine power", K: 3})
	fmt.Printf("\nkeyword search \"engine power\" -> %d documents\n", len(hits))

	_ = core.ExtractionSchema // full Table 3 schema lives in core
}
