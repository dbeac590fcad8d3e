// Command lunabench regenerates Table 4 of the paper: Luna versus the RAG
// baseline on the 30-question NTSB analytics benchmark, with the §7.2
// error taxonomy (counting, filter, interpretation).
//
// Usage:
//
//	lunabench                          # defaults: 100 accidents, canonical seeds
//	lunabench -detail                  # per-question verdicts
//	lunabench -docs 50 -k 20           # smaller corpus, shallower retrieval
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"aryn/internal/core"
	"aryn/internal/ntsb"
	"aryn/internal/qa"
)

func main() {
	var (
		nDocs      = flag.Int("docs", 100, "number of accidents in the corpus")
		corpusSeed = flag.Int64("seed", 42, "corpus seed")
		sysSeed    = flag.Int64("system-seed", 7, "system seed")
		k          = flag.Int("k", 100, "RAG retrieval depth")
		detail     = flag.Bool("detail", false, "print per-question verdicts")
		failures   = flag.Bool("failures", false, "print Luna's incorrect answers vs ground truth")
	)
	flag.Parse()

	if err := run(*nDocs, *corpusSeed, *sysSeed, *k, *detail, *failures); err != nil {
		fmt.Fprintln(os.Stderr, "lunabench:", err)
		os.Exit(1)
	}
}

func run(nDocs int, corpusSeed, sysSeed int64, k int, detail, failures bool) error {
	ctx := context.Background()
	corpus, err := ntsb.GenerateCorpus(nDocs, corpusSeed)
	if err != nil {
		return err
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		return err
	}
	sys := core.New(core.Config{Seed: sysSeed, Parallelism: 8, RAGK: k})
	fmt.Printf("ingesting %d reports (%d accidents)...\n", len(blobs), nDocs)
	stats, err := sys.Ingest(ctx, blobs)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d docs / %d chunks in %s\n\n", stats.Documents, stats.Chunks, stats.Wall.Round(1e6))

	t4, err := qa.RunTable4(ctx, sys, corpus)
	if err != nil {
		return err
	}
	fmt.Println("Table 4 — Luna vs. RAG on the 30-question NTSB benchmark:")
	fmt.Println(t4.Format())
	fmt.Println("paper reference: Luna 20 (67%) / 10 (33%) / 0; RAG 2 (6.7%) / 20 (67%) / 8 (26.7%)")
	fmt.Println("paper taxonomy: counting 6, filter 3, interpretation 1")

	if detail {
		fmt.Println()
		fmt.Println(t4.Detail())
	}
	if failures {
		fmt.Println()
		for _, r := range t4.LunaRecords {
			if r.Verdict != qa.Correct {
				fmt.Printf("Q%-2d [%s] got=%s\n     gt=%s\n", r.Question.ID, r.Category, r.Answer.String(), r.GT.String())
			}
		}
	}
	return nil
}
