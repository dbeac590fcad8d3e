package core

import (
	"context"
	"fmt"
	"testing"

	"aryn/internal/llm"
	"aryn/internal/luna"
)

const qTopParts = "What are the top three most commonly damaged parts in single-engine aircraft incidents?"

// extractAll runs queryDatabase → llmExtract[fields] over every stored
// report and returns each document's extracted values ("id/field"), the
// upstream tokens the run cost, and the extract node's runtime.
func extractAll(t *testing.T, sys *System, fields []llm.FieldSpec) (map[string]string, int, luna.NodeRuntime) {
	t.Helper()
	before := sys.LLM.Usage()
	res, err := sys.QueryService().RunPlan(context.Background(), "extract", luna.Chain(
		luna.LogicalOp{Op: luna.OpQueryDatabase},
		luna.LogicalOp{Op: luna.OpLLMExtract, Fields: fields}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 103 {
		t.Fatalf("extracted from %d documents, want 103", len(res.Docs))
	}
	values := map[string]string{}
	for _, d := range res.Docs {
		for _, f := range fields {
			values[d.ID+"/"+f.Name] = d.Property(f.Name)
		}
	}
	return values, sys.LLM.Usage().Sub(before).Total(), res.Exec.Nodes[1].Runtime
}

// TestScopedExtractValues measures the approximate rule scopeExtracts where
// it is approximate: damaged_part read from all 103 reports of the benchmark
// corpora (seeds 42 and 43), whole-document and scoped. No value may differ,
// the scoped pass may cost at most 45% of the whole-document tokens
// (measured: 23,224 of 58,408 on corpus 42), and it must account for every
// document — answered from its scope, asked again whole, or asked whole at
// once — with one model call each plus one per re-ask. A cold run at
// parallelism 1 on a system of its own reads the same values for the same
// calls and tokens, and the plan asked again is all cache hits.
func TestScopedExtractValues(t *testing.T) {
	fields := []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}
	for _, corpusSeed := range []int64{42, 43} {
		t.Run(fmt.Sprintf("corpus %d", corpusSeed), func(t *testing.T) {
			whole, wholeTokens, _ := extractAll(t, ingestedCorpus(t, Config{Seed: 7, Parallelism: 8}, 100, corpusSeed), fields)
			sys := ingestedCorpus(t, Config{Seed: 7, Parallelism: 8, Optimize: true}, 100, corpusSeed)
			scoped, scopedTokens, r := extractAll(t, sys, fields)

			for id, want := range whole {
				if scoped[id] != want {
					t.Errorf("%s is %q from the whole document, %q scoped", id, want, scoped[id])
				}
			}
			if scopedTokens*100 > wholeTokens*45 {
				t.Errorf("the scoped pass cost %d tokens, the whole-document pass %d: want at most 45%%", scopedTokens, wholeTokens)
			}
			if r.ProxyKept == 0 || r.ProxyKept+r.Escalations > r.DocsIn || r.LLMCalls != r.DocsIn+r.Escalations {
				t.Errorf("scoped extract accounting: %d in, %d answered from the scope, %d asked again, %d calls",
					r.DocsIn, r.ProxyKept, r.Escalations, r.LLMCalls)
			}
			t.Logf("%d of 103 answered from the scope, %d asked again whole; %d tokens scoped, %d whole",
				r.ProxyKept, r.Escalations, scopedTokens, wholeTokens)

			serial, serialTokens, sr := extractAll(t, ingestedCorpus(t, Config{Seed: 7, Parallelism: 1, Optimize: true}, 100, corpusSeed), fields)
			if serialTokens != scopedTokens || sr.LLMCalls != r.LLMCalls || sr.Escalations != r.Escalations {
				t.Errorf("cold at parallelism 1: %d tokens, %d calls, %d asked again; at 8: %d, %d, %d",
					serialTokens, sr.LLMCalls, sr.Escalations, scopedTokens, r.LLMCalls, r.Escalations)
			}
			again, againTokens, ar := extractAll(t, sys, fields)
			if againTokens != 0 || ar.CacheHits != ar.LLMCalls || ar.LLMCalls != r.LLMCalls {
				t.Errorf("repeated: %d tokens, %d of %d calls cache hits (first pass: %d calls)",
					againTokens, ar.CacheHits, ar.LLMCalls, r.LLMCalls)
			}
			for id, want := range scoped {
				if serial[id] != want || again[id] != want {
					t.Errorf("%s: %q at parallelism 8, %q cold at 1, %q repeated", id, want, serial[id], again[id])
				}
			}
		})
	}
}

// TestScopedExtractShapes measures scopeExtracts on the extracts the
// benchmark does not send: bool and int fields, a field most reports have
// nothing to say about, alone and fused with one they do, and a field the
// model answers for no report although every report mentions its terms.
// Per shape and corpus it pins the values that differ from the
// whole-document pass, the documents asked again whole, and a ceiling on
// scoped tokens as a percentage of whole-document tokens (docs/optimizer.md
// "Scoped extracts" holds the table). The last shape is the rule's losing
// one, pinned so that it cannot get worse unseen: a null is only asked again
// when a section left out mentions the field, so the fused null-heavy extract
// costs what damaged_part alone costs, but a field mentioned everywhere and
// answered nowhere is asked twice in two reports of three.
func TestScopedExtractShapes(t *testing.T) {
	var (
		part    = llm.FieldSpec{Name: "damaged_part", Type: "string"}
		weather = llm.FieldSpec{Name: "weather_related", Type: "bool", Description: "whether weather contributed"}
		age     = llm.FieldSpec{Name: "pilot_age", Type: "int"}
		bird    = llm.FieldSpec{Name: "bird_species", Type: "string"}
		engines = llm.FieldSpec{Name: "engine_count", Type: "int"}
	)
	type pin struct{ changed, escalated, maxPercent int }
	shapes := []struct {
		name   string
		fields []llm.FieldSpec
		pins   map[int64]pin
	}{
		{"bool", []llm.FieldSpec{weather}, map[int64]pin{42: {0, 0, 55}, 43: {0, 0, 55}}},
		{"int", []llm.FieldSpec{age}, map[int64]pin{42: {0, 3, 60}, 43: {0, 3, 60}}},
		{"null-heavy", []llm.FieldSpec{bird}, map[int64]pin{42: {1, 0, 100}, 43: {0, 0, 100}}},
		{"fused with a bool", []llm.FieldSpec{part, weather}, map[int64]pin{42: {0, 2, 70}, 43: {0, 0, 70}}},
		{"fused with a null-heavy field", []llm.FieldSpec{part, bird}, map[int64]pin{42: {0, 1, 45}, 43: {0, 0, 45}}},
		{"mentioned everywhere, answered nowhere", []llm.FieldSpec{engines}, map[int64]pin{42: {0, 75, 120}, 43: {0, 76, 120}}},
	}
	for _, corpusSeed := range []int64{42, 43} {
		wholeSys := ingestedCorpus(t, Config{Seed: 7, Parallelism: 8}, 100, corpusSeed)
		scopedSys := ingestedCorpus(t, Config{Seed: 7, Parallelism: 8, Optimize: true}, 100, corpusSeed)
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("corpus %d/%s", corpusSeed, shape.name), func(t *testing.T) {
				whole, wholeTokens, _ := extractAll(t, wholeSys, shape.fields)
				scoped, scopedTokens, r := extractAll(t, scopedSys, shape.fields)
				changed := 0
				for id, want := range whole {
					if scoped[id] != want {
						changed++
						t.Logf("%s is %q from the whole document, %q scoped", id, want, scoped[id])
					}
				}
				want := shape.pins[corpusSeed]
				if changed != want.changed || int(r.Escalations) != want.escalated {
					t.Errorf("%d values changed and %d documents asked again whole, want %d and %d", changed, r.Escalations, want.changed, want.escalated)
				}
				if scopedTokens*100 > wholeTokens*want.maxPercent {
					t.Errorf("the scoped pass cost %d tokens, the whole-document pass %d: want at most %d%%", scopedTokens, wholeTokens, want.maxPercent)
				}
				if r.LLMCalls != r.DocsIn+r.Escalations {
					t.Errorf("%d calls for %d documents and %d re-asks", r.LLMCalls, r.DocsIn, r.Escalations)
				}
				t.Logf("%d answered from the scope, %d asked again whole; %d tokens scoped, %d whole (%.0f%%)",
					r.ProxyKept, r.Escalations, scopedTokens, wholeTokens, 100*float64(scopedTokens)/float64(wholeTokens))
			})
		}
	}
}

// TestScopeExtractsGuard fails when scopeExtracts leaves the rule list:
// the benchmark's q29 (a structured filter, then damaged_part from the 91
// reports it keeps) must cost at least 25,000 tokens less with optimize on,
// for the same answer.
func TestScopeExtractsGuard(t *testing.T) {
	ask := func(optimize bool) (string, int) {
		sys := ingested(t, Config{Seed: 7, Parallelism: 8, Optimize: optimize}, 100)
		before := sys.LLM.Usage()
		res, err := sys.QueryService().Ask(context.Background(), qTopParts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Answer.String(), sys.LLM.Usage().Sub(before).Total()
	}
	want, whole := ask(false)
	got, scoped := ask(true)
	if got != want {
		t.Errorf("answer %q with optimize on, %q off", got, want)
	}
	t.Logf("q29 cost %d tokens with optimize off, %d on", whole, scoped)
	if whole-scoped < 25000 {
		t.Errorf("q29 cost %d tokens with optimize on, %d off: want at least 25,000 saved", scoped, whole)
	}
}
