// Package aryn's benchmark harness regenerates every quantitative table
// and figure of the paper (run with `go test -bench . -benchmem`) and
// measures the ablations DESIGN.md calls out. Custom metrics carry the
// reproduced numbers: mAP/mAR for Table 1, correct/incorrect/refusal
// counts for Table 4, and LLM-call counts for the plan-rewrite ablation.
package aryn

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"aryn/internal/core"
	"aryn/internal/docparse"
	"aryn/internal/layout"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
	"aryn/internal/qa"
	"aryn/internal/rag"
)

// ingestedSystem builds and ingests the canonical evaluation corpus once.
func ingestedSystem(b *testing.B, nDocs int, ragK int) (*core.System, *ntsb.Corpus) {
	b.Helper()
	corpus, err := ntsb.GenerateCorpus(nDocs, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 8, RAGK: ragK})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		b.Fatal(err)
	}
	return sys, corpus
}

// BenchmarkTable1Segmentation regenerates Table 1: COCO mAP/mAR of the
// four segmentation services on the DocLayNet-style benchmark. The metric
// names carry the reproduced values.
func BenchmarkTable1Segmentation(b *testing.B) {
	corpus := layout.GenerateCorpus(40, 11)
	services := layout.Table1Services(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seg := range services {
			res := layout.EvaluateSegmenter(corpus, seg)
			b.ReportMetric(res.MAP, shortName(seg.Name())+"_mAP")
			b.ReportMetric(res.MAR, shortName(seg.Name())+"_mAR")
		}
	}
}

func shortName(s string) string {
	switch s {
	case "DocParse":
		return "docparse"
	case "Amazon Textract":
		return "textract"
	case "Unstructured (YoloX)":
		return "unstructured"
	default:
		return "azure"
	}
}

// BenchmarkTable3SchemaExtraction measures the Table 3 ETL step: full
// llmExtract of the 20-field schema over parsed reports (documents per
// second; accuracy is asserted in the core tests).
func BenchmarkTable3SchemaExtraction(b *testing.B) {
	incs := ntsb.GenerateIncidents(20, 42)
	parser := docparse.New()
	var docs []string
	for i := range incs {
		d, err := parser.ParseRaw(ntsb.BuildReport(&incs[i]))
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, d.TextContent())
	}
	sim := llm.NewSim(7)
	fields := core.ExtractionSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prompt := llm.ExtractPrompt(fields, docs[i%len(docs)])
		if _, err := sim.Complete(context.Background(), llm.Request{Prompt: prompt}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4LunaVsRAG regenerates Table 4: the 30-question benchmark
// under both systems. Metrics carry the correct/incorrect/refusal cells.
func BenchmarkTable4LunaVsRAG(b *testing.B) {
	sys, corpus := ingestedSystem(b, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4, err := qa.RunTable4(context.Background(), sys, corpus)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t4.Luna.Correct), "luna_correct")
		b.ReportMetric(float64(t4.Luna.Incorrect), "luna_incorrect")
		b.ReportMetric(float64(t4.Luna.Refusal), "luna_refusal")
		b.ReportMetric(float64(t4.RAG.Correct), "rag_correct")
		b.ReportMetric(float64(t4.RAG.Incorrect), "rag_incorrect")
		b.ReportMetric(float64(t4.RAG.Refusal), "rag_refusal")
		b.ReportMetric(float64(t4.Luna.ByCategory[qa.ErrCounting]), "luna_err_counting")
		b.ReportMetric(float64(t4.Luna.ByCategory[qa.ErrFilter]), "luna_err_filter")
		b.ReportMetric(float64(t4.Luna.ByCategory[qa.ErrInterpretation]), "luna_err_interpretation")
	}
}

// BenchmarkFigure2DocParse measures DocParse parsing throughput
// (pages/op) — the Figure 2/3 pipeline end to end.
func BenchmarkFigure2DocParse(b *testing.B) {
	incs := ntsb.GenerateIncidents(10, 42)
	raws := make([]int, 0)
	_ = raws
	parser := docparse.New()
	reports := make([]*ntsb.Incident, len(incs))
	for i := range incs {
		reports[i] = &incs[i]
	}
	pages := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := ntsb.BuildReport(reports[i%len(reports)])
		doc, err := parser.ParseRaw(raw)
		if err != nil {
			b.Fatal(err)
		}
		pages += doc.PageCount()
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// BenchmarkFigure6QueryLatency measures end-to-end Luna query latency
// (plan + validate + rewrite + compile + execute with trace) for a
// metadata-backed analytics question.
func BenchmarkFigure6QueryLatency(b *testing.B) {
	sys, _ := ingestedSystem(b, 50, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query.Ask(context.Background(), "How many incidents were there by state?"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRewrite compares LLM calls per document for a plan
// with three separate llmExtract operators versus the fused plan the
// §6.1 rewriter produces.
func BenchmarkAblationRewrite(b *testing.B) {
	raw := luna.Chain(
		luna.LogicalOp{Op: luna.OpQueryDatabase},
		luna.LogicalOp{Op: luna.OpLLMExtract, Fields: []llm.FieldSpec{{Name: "a", Type: "string"}}},
		luna.LogicalOp{Op: luna.OpLLMExtract, Fields: []llm.FieldSpec{{Name: "b", Type: "string"}}},
		luna.LogicalOp{Op: luna.OpLLMExtract, Fields: []llm.FieldSpec{{Name: "c", Type: "string"}}},
		luna.LogicalOp{Op: luna.OpCount},
	)
	// llmCallsPerDoc counts the operators that call the model once per
	// input document.
	llmCallsPerDoc := func(plan *luna.LogicalPlan) (n int) {
		for _, node := range plan.Nodes {
			if node.Op == luna.OpLLMExtract || node.Op == luna.OpLLMFilter {
				n++
			}
		}
		return n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = luna.Rewrite(raw)
	}
	b.ReportMetric(float64(llmCallsPerDoc(raw)), "llm_calls_per_doc_raw")
	b.ReportMetric(float64(llmCallsPerDoc(luna.Rewrite(raw))), "llm_calls_per_doc_fused")
}

// BenchmarkAblationDedup measures the §7.2 counting-error fix: the same
// count question with and without the distinct-by-accident rewrite.
func BenchmarkAblationDedup(b *testing.B) {
	sys, corpus := ingestedSystem(b, 100, 100)
	accidents := map[string]bool{}
	for i := range corpus.Incidents {
		accidents[corpus.Incidents[i].AccidentNumber] = true
	}
	plan := luna.Chain(luna.LogicalOp{Op: luna.OpQueryDatabase}, luna.LogicalOp{Op: luna.OpCount})
	withDedup := luna.WithDedup(plan, "accidentNumber")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive, err := sys.Query.Executor.Run(ctx, plan, luna.StreamHooks{})
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := sys.Query.Executor.Run(ctx, withDedup, luna.StreamHooks{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(naive.Answer.Number, "count_naive")
		b.ReportMetric(fixed.Answer.Number, "count_deduped")
		b.ReportMetric(float64(len(accidents)), "count_truth")
	}
}

// BenchmarkAblationETLvsQuery contrasts answering from pre-extracted
// metadata (ETL-time) against a query-time llmExtract sweep — the §5
// motivation for running operators at either time.
func BenchmarkAblationETLvsQuery(b *testing.B) {
	sys, _ := ingestedSystem(b, 50, 100)
	ctx := context.Background()

	b.Run("etl-time-metadata-filter", func(b *testing.B) {
		plan := luna.Chain(
			luna.LogicalOp{Op: luna.OpQueryDatabase, Filters: []luna.FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}},
			luna.LogicalOp{Op: luna.OpCount},
		)
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query.Executor.Run(ctx, plan, luna.StreamHooks{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query-time-llm-sweep", func(b *testing.B) {
		plan := luna.Chain(
			luna.LogicalOp{Op: luna.OpQueryDatabase},
			luna.LogicalOp{Op: luna.OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
			luna.LogicalOp{Op: luna.OpGroupByAggregate, Key: "damaged_part", Agg: "count"},
		)
		for i := 0; i < b.N; i++ {
			if _, err := sys.Query.Executor.Run(ctx, plan, luna.StreamHooks{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRAGContext sweeps the RAG retrieval depth k and
// reports accuracy on the 30-question benchmark — the §7.2 observation
// that more context does not rescue aggregation questions.
func BenchmarkAblationRAGContext(b *testing.B) {
	sys, corpus := ingestedSystem(b, 100, 100)
	ctx := context.Background()
	for _, k := range []int{5, 20, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			pipe := rag.New(sys.Store, sys.LLM, sys.Embedder)
			pipe.K = k
			for i := 0; i < b.N; i++ {
				correct := 0
				for _, q := range qa.Questions(corpus) {
					resp, err := pipe.Answer(ctx, q.Text)
					if err != nil {
						b.Fatal(err)
					}
					ans := qa.ParseRAGAnswer(q, resp.Answer, resp.Text, resp.Refused)
					if qa.Grade(q, ans, q.GT(corpus)) == qa.Correct {
						correct++
					}
				}
				b.ReportMetric(float64(correct), "correct_of_30")
			}
		})
	}
}

// BenchmarkAblationOCR measures extraction robustness to OCR quality:
// Table 3 field accuracy over scanned documents at increasing character
// error rates — the §4 argument for high-quality parsing as the
// foundation of answer quality.
func BenchmarkAblationOCR(b *testing.B) {
	incs := ntsb.GenerateIncidents(20, 42)
	sim := llm.NewSim(7)
	for _, cer := range []float64{0, 0.02, 0.10} {
		b.Run(fmt.Sprintf("cer=%.2f", cer), func(b *testing.B) {
			parser := docparse.New(docparse.WithOCRErrorRate(cer))
			for i := 0; i < b.N; i++ {
				correct, total := 0, 0
				for j := range incs {
					inc := &incs[j]
					raw := ntsb.BuildReport(inc)
					raw.Meta["scanned"] = "true"
					doc, err := parser.ParseRaw(raw)
					if err != nil {
						b.Fatal(err)
					}
					prompt := llm.ExtractPrompt([]llm.FieldSpec{
						{Name: "us_state", Type: "string"},
						{Name: "aircraftDamage", Type: "string"},
						{Name: "registration", Type: "string"},
					}, doc.TextContent())
					resp, err := sim.Complete(context.Background(), llm.Request{Prompt: prompt})
					if err != nil {
						b.Fatal(err)
					}
					for field, want := range map[string]string{
						"us_state":       inc.StateAbbrev(),
						"aircraftDamage": inc.Damage,
						"registration":   inc.Registration,
					} {
						total++
						if strings.Contains(resp.Text, fmt.Sprintf("%q:%q", field, want)) {
							correct++
						}
					}
				}
				b.ReportMetric(float64(correct)/float64(total), "field_accuracy")
			}
		})
	}
}
