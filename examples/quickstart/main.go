// Quickstart: the minimal end-to-end Aryn flow — generate a small corpus
// of synthetic NTSB reports, ingest it (DocParse → llmExtract → index),
// and ask one natural-language question.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"aryn/internal/core"
	"aryn/internal/ntsb"
)

func main() {
	ctx := context.Background()

	// 1. Get raw documents. In production these are PDFs; here they are
	// synthetic NTSB incident reports in the rawdoc format.
	corpus, err := ntsb.GenerateCorpus(25, 1)
	if err != nil {
		log.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the system and run the ETL pipeline of Figure 4:
	// partition → llmExtract(schema) → write parents → mergeChunks → embed →
	// write chunks.
	sys := core.New(core.Config{Seed: 7})
	stats, err := sys.Ingest(ctx, blobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d documents (%d chunks) in %s using %d LLM calls\n\n",
		stats.Documents, stats.Chunks, stats.Wall.Round(1e6), stats.Usage.Calls)

	// 3. Ask a question. Luna plans it, validates and optimizes the plan,
	// compiles it to a Sycamore pipeline, and executes with full lineage.
	res, err := sys.Ask(ctx, "How many incidents were there by state?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q:", res.Question)
	fmt.Println("A:", res.Answer.String())
	fmt.Println("\nthe plan Luna generated:")
	fmt.Println(res.Rewritten.String())
}
