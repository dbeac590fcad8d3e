package core

import (
	"context"
	"path/filepath"
	"testing"

	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

const (
	qFire = "Does the report mention a fire?"
	qFuel = "Does the report mention fuel?"
)

func ingested(t *testing.T, cfg Config, accidents int) *System {
	t.Helper()
	return ingestedCorpus(t, cfg, accidents, 42)
}

func ingestedCorpus(t *testing.T, cfg Config, accidents int, corpusSeed int64) *System {
	t.Helper()
	corpus, err := ntsb.GenerateCorpus(accidents, corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := New(cfg)
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}
	return sys
}

// spend runs the plan and returns its answer and upstream tokens.
func spend(t *testing.T, sys *System, plan *luna.LogicalPlan) (string, int) {
	t.Helper()
	before := sys.LLM.Usage()
	res, err := sys.QueryService().RunPlan(context.Background(), "plan", plan)
	if err != nil {
		t.Fatal(err)
	}
	return res.Answer.String(), sys.LLM.Usage().Sub(before).Total()
}

func filterChain(questions ...string) *luna.LogicalPlan {
	ops := []luna.LogicalOp{{Op: luna.OpQueryDatabase}}
	for _, q := range questions {
		ops = append(ops, luna.LogicalOp{Op: luna.OpLLMFilter, Question: q})
	}
	return luna.Chain(append(ops, luna.LogicalOp{Op: luna.OpCount})...)
}

// TestRefinementOverBenchmarkCorpus is the paper's refinement pattern (a
// follow-up chains a new llmFilter onto the previous plan) on the 103
// reports of the benchmark corpus, optimize on: "fire?" and then "fire? and
// fuel?". Fused, the second query must cost what the un-fused chain costs —
// 4,520 tokens at the parent commit, the fuel question put to the reports
// that mention a fire — and not a second reading of the corpus (57,761 with
// the packed prompt as the cache key).
func TestRefinementOverBenchmarkCorpus(t *testing.T) {
	run := func(optimize bool) (first, second int, answer string) {
		sys := ingested(t, Config{Seed: 7, Parallelism: 8, Optimize: optimize}, 100)
		_, first = spend(t, sys, filterChain(qFire))
		answer, second = spend(t, sys, filterChain(qFire, qFuel))
		return first, second, answer
	}
	first, second, answer := run(true)
	_, chained, chainedAnswer := run(false)
	if answer != chainedAnswer {
		t.Errorf("answers diverge: %s optimized, %s not", answer, chainedAnswer)
	}
	const parentSecond = 4520
	if second > parentSecond*105/100 || second < parentSecond*95/100 {
		t.Errorf("second query cost %d tokens, the parent's %d (first query: %d)", second, parentSecond, first)
	}
	if second > chained {
		t.Errorf("second query cost %d tokens fused, %d as the plain chain", second, chained)
	}
}

// TestFilterAnswersShareOneKeySpace: a fused filter stores each answer
// under the question's solo prompt, so a cache file written through the
// fused stage serves the single-question stages of another process, and
// one written by single-question stages — what every earlier version of
// this program wrote — serves the fused stage. Neither direction sends a
// filter prompt upstream.
func TestFilterAnswersShareOneKeySpace(t *testing.T) {
	fused := luna.Chain(
		luna.LogicalOp{Op: luna.OpQueryDatabase},
		luna.LogicalOp{Op: luna.OpLLMFilter, Questions: []string{qFire, qFuel}},
		luna.LogicalOp{Op: luna.OpCount})
	chain := filterChain(qFire, qFuel)
	for _, dir := range []struct {
		name           string
		writer, reader *luna.LogicalPlan
	}{
		{"fused file read by the chain", fused, chain},
		{"chain file read by the fused stage", chain, fused},
	} {
		t.Run(dir.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "llm.cache")
			writer := ingested(t, Config{Seed: 7, Parallelism: 4}, 12)
			wrote, spent := spend(t, writer, dir.writer)
			if spent == 0 {
				t.Fatal("the writer spent nothing: the file would prove nothing")
			}
			if err := writer.SaveLLMCache(path); err != nil {
				t.Fatal(err)
			}
			reader := ingested(t, Config{Seed: 7, Parallelism: 4, LLMCachePath: path}, 12)
			read, spent := spend(t, reader, dir.reader)
			if spent != 0 {
				t.Errorf("the reader sent %d tokens upstream with every answer in the file", spent)
			}
			if read != wrote {
				t.Errorf("answers diverge: writer %s, reader %s", wrote, read)
			}
		})
	}
}
