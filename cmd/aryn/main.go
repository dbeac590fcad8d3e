// Command aryn is the end-to-end Aryn CLI: generate or load an NTSB-style
// corpus, ingest it through the DocParse→Sycamore ETL pipeline, and answer
// natural-language questions with Luna — printing the generated plan, the
// compiled Sycamore pipeline, and the execution trace for inspection, the
// textual equivalent of the Figure 6 UI.
//
// Usage:
//
//	aryn -docs 100 -q "How many incidents were there by state?" -show-plan -show-trace
//	aryn -q "..." -explain            # EXPLAIN ANALYZE: per-node runtime metrics
//	aryn -q "..." -stream              # print partial batches as the pipeline emits them
//	aryn -docs 100 -interactive        # conversational session with follow-ups
//	aryn -demo schema                  # print the extracted Table 3 schema
//	aryn -rag -q "..."                 # answer via the RAG baseline instead
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

func main() {
	var (
		nDocs       = flag.Int("docs", 100, "number of synthetic NTSB accidents to generate and ingest")
		seed        = flag.Int64("seed", 42, "corpus seed")
		sysSeed     = flag.Int64("system-seed", 7, "system (LLM/models) seed")
		question    = flag.String("q", "", "natural-language question to answer")
		interactive = flag.Bool("interactive", false, "start a conversational session on stdin")
		showPlan    = flag.Bool("show-plan", false, "print the logical plan JSON")
		showTrace   = flag.Bool("show-trace", false, "print the execution trace")
		explain     = flag.Bool("explain", false, "print EXPLAIN ANALYZE: the executed plan annotated with per-node runtime metrics")
		showDocs    = flag.Bool("show-docs", false, "print result documents (drill-down)")
		useRAG      = flag.Bool("rag", false, "answer with the RAG baseline instead of Luna")
		stream      = flag.Bool("stream", false, "watch the execution: print partial result batches as the output pipeline emits them, then the final result")
		demo        = flag.String("demo", "", "demo mode: 'schema' prints the extracted schema (Table 3)")
		parallelism = flag.Int("parallelism", 8, "Sycamore stage parallelism")
		optimize    = flag.Bool("optimize", false, "enable the optimize phase: llmExtracts scoped to a section (the exact rewrites — predicate hoisting, llmFilter fusion — always run)")
	)
	flag.Parse()

	show := display{plan: *showPlan, trace: *showTrace, docs: *showDocs, explain: *explain, stream: *stream}
	if err := run(*nDocs, *seed, *sysSeed, *parallelism, *question, *demo, *interactive, *optimize, show, *useRAG); err != nil {
		fmt.Fprintln(os.Stderr, "aryn:", err)
		os.Exit(1)
	}
}

// display selects which views of a result the CLI prints, and whether
// execution streams partial batches to the terminal as they arrive.
type display struct {
	plan, trace, docs, explain, stream bool
}

func run(nDocs int, seed, sysSeed int64, parallelism int, question, demo string, interactive, optimize bool, show display, useRAG bool) error {
	ctx := context.Background()
	fmt.Printf("generating %d synthetic NTSB accidents (seed %d)...\n", nDocs, seed)
	corpus, err := ntsb.GenerateCorpus(nDocs, seed)
	if err != nil {
		return err
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		return err
	}
	sys := core.New(core.Config{Seed: sysSeed, Parallelism: parallelism, Optimize: optimize})
	fmt.Printf("ingesting %d report documents (DocParse -> llmExtract -> index)...\n", len(blobs))
	stats, err := sys.Ingest(ctx, blobs)
	if err != nil {
		return err
	}
	fmt.Printf("ingested: %d documents, %d chunks, %s wall, %d LLM calls (%d tokens)\n",
		stats.Documents, stats.Chunks, stats.Wall.Round(1e6), stats.Usage.Calls, stats.Usage.Total())
	fmt.Printf("llm middleware: %s\n\n", stats.LLM)

	switch {
	case demo == "schema":
		fmt.Println("Extracted schema (Table 3):")
		fmt.Print(sys.QueryService().Planner.Schema.PromptBlock())
		return nil
	case interactive:
		return repl(ctx, sys, show)
	case question != "":
		return answer(ctx, sys, question, show, useRAG)
	default:
		flag.Usage()
		return nil
	}
}

func answer(ctx context.Context, sys *core.System, q string, show display, useRAG bool) error {
	if useRAG {
		resp, err := sys.AskRAG(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("RAG (k=%d, %d chunks, %d poisoned):\n%s\n", sys.RAG.K, resp.Retrieved, resp.PoisonedChunks, resp.Text)
		return nil
	}
	res, err := ask(ctx, sys, new(luna.Conversation), q, show)
	if err != nil {
		return err
	}
	printResult(res, show)
	return nil
}

// ask answers one question in conv; with -stream it watches the
// execution, narrating partial batches with their arrival offsets so
// time-to-first-result is visible at the terminal. The final Result is the
// same either way.
func ask(ctx context.Context, sys *core.System, conv *luna.Conversation, q string, show display) (*luna.Result, error) {
	shared := sys.QueryService()
	if shared == nil {
		return nil, fmt.Errorf("system is not ready to answer queries")
	}
	svc := *shared // a copy: the hooks belong to this question only
	if !show.stream {
		return conv.Ask(ctx, &svc, q)
	}
	start := time.Now()
	var batches, docs int
	svc.Hooks = luna.StreamHooks{
		OnPartial: func(part []*docmodel.Document) {
			batches++
			docs += len(part)
			fmt.Printf("  [+%8s] partial batch %d: %d doc(s), %d total\n",
				time.Since(start).Round(time.Millisecond), batches, len(part), docs)
		},
	}
	res, err := conv.Ask(ctx, &svc, q)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  [+%8s] stream complete: %d partial batch(es), %d doc(s)\n",
		time.Since(start).Round(time.Millisecond), batches, docs)
	return res, nil
}

func printResult(res *luna.Result, show display) {
	fmt.Printf("Q: %s\nA: %s\n", res.Question, res.Answer.String())
	if show.plan {
		fmt.Println("\n-- logical plan --")
		fmt.Println(res.Rewritten.JSON())
		if res.Optimized != nil {
			fmt.Println("\n-- optimized plan --")
			fmt.Println(res.Optimized.JSON())
		}
		fmt.Println("\n-- compiled Sycamore pipeline --")
		fmt.Println(res.Compiled)
	}
	if show.trace && res.Trace != nil {
		fmt.Println("\n-- execution trace --")
		fmt.Print(res.Trace.String())
		if res.LLM != nil {
			fmt.Printf("llm middleware: %s\n", res.LLM)
		}
	}
	if show.explain && res.Exec != nil {
		fmt.Println("\n-- explain analyze --")
		fmt.Println(res.ExecutedPlan().AnnotatedJSON(res.Exec))
		printEstimates(res)
	}
	if show.docs {
		fmt.Println("\n-- result documents --")
		for i, d := range res.Docs {
			if i >= 10 {
				fmt.Printf("  ... and %d more\n", len(res.Docs)-10)
				break
			}
			fmt.Printf("  %s %s\n", d.ID, d.Properties.JSON())
		}
	}
	fmt.Println()
}

// printEstimates renders the cost model's pre-execution estimates next to
// the runtime annotation above — the estimated half of EXPLAIN ANALYZE's
// estimated-vs-observed comparison.
func printEstimates(res *luna.Result) {
	if res.Cost == nil {
		return
	}
	fmt.Println("\n-- estimated cost (rewritten plan) --")
	printEstimate(res.Cost)
	if res.CostOptimized != nil {
		fmt.Println("\n-- estimated cost (optimized plan) --")
		printEstimate(res.CostOptimized)
	}
}

func printEstimate(pe *luna.PlanEstimate) {
	for _, n := range pe.Nodes {
		fmt.Printf("  %-24s docs %8.1f -> %8.1f  llm %7.1f  units %9.1f\n",
			n.Op+" #"+fmt.Sprint(n.ID), n.DocsIn, n.DocsOut, n.LLMCalls, n.Units)
	}
	fmt.Printf("  total: %.1f estimated LLM calls, %.1f cost units\n", pe.LLMCalls, pe.Units)
}

func repl(ctx context.Context, sys *core.System, show display) error {
	fmt.Println("conversational session — ask questions; follow-ups like \"what about X\" refine the last query; 'quit' to exit")
	sc := bufio.NewScanner(os.Stdin)
	var conv luna.Conversation
	for {
		fmt.Print("luna> ")
		if !sc.Scan() {
			return sc.Err()
		}
		q := strings.TrimSpace(sc.Text())
		switch q {
		case "":
			continue
		case "q", "quit", "exit":
			return nil
		}
		res, err := ask(ctx, sys, &conv, q, show)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res, show)
	}
}
