package aryn

// BenchmarkOptimizer pins the cost-based optimize phase against the same
// standard query mix with optimization off and on: byte-identical answers
// are asserted inside the benchmark (the equivalence contract), and the
// reported metrics carry the before/after LLM-call, token, and wall-time
// numbers that BENCH_optimizer.json records. The optimized run must cut
// LLM calls by at least 30% — the acceptance bar the optimizer ships
// under — so a regression in any rewrite (hoisting, reordering, proxy
// cascades) fails the bench instead of silently shrinking the win.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

// optimizerBenchMix is the standard query mix: the plan shapes each
// rewrite targets (single predicates for cascades, chains for reordering,
// trailing basic filters for hoisting, a DAG join for multi-branch
// plans), over the canonical seed-42 NTSB corpus.
var optimizerBenchMix = []struct {
	name string
	plan string
}{
	{"count-fires", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"n3","inputs":["n2"],"op":"count"}],"output":"n3"}`},
	{"state-fuel", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention fuel?"},
		{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"us_state","kind":"term","value":"AZ"}]},
		{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"twin-hoist", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a pilot?"},
		{"id":"n3","inputs":["n2"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"n4","inputs":["n3"],"op":"basicFilter","filters":[{"field":"engines","kind":"term","value":2}]},
		{"id":"n5","inputs":["n4"],"op":"count"}],"output":"n5"}`},
	{"group-by-state", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention ice?"},
		{"id":"n3","inputs":["n2"],"op":"groupByAggregate","key":"us_state","agg":"count"}],"output":"n3"}`},
	{"destroyed-birds", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention birds?"},
		{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"aircraftDamage","kind":"term","value":"Destroyed"}]},
		{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"join-filters", `{"nodes":[
		{"id":"a","op":"queryDatabase"},
		{"id":"b","inputs":["a"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"c","inputs":["a"],"op":"llmFilter","question":"Does the report mention fuel?"},
		{"id":"d","inputs":["b","c"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},
		{"id":"e","inputs":["d"],"op":"count"}],"output":"e"}`},
}

// optimizerMixResult aggregates one full pass over the mix.
type optimizerMixResult struct {
	answers  []string
	llmCalls int64
	tokens   int64
	wall     time.Duration
}

// runOptimizerMix builds a fresh ingested system (so the LLM cache of one
// mode can never subsidize the other) and runs every plan in the mix.
func runOptimizerMix(b *testing.B, optimize bool) optimizerMixResult {
	b.Helper()
	corpus, err := ntsb.GenerateCorpus(30, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 8, Optimize: optimize})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		b.Fatal(err)
	}
	svc := sys.QueryService()
	if svc == nil {
		b.Fatal("system not ready to answer queries")
	}

	var out optimizerMixResult
	start := time.Now()
	for _, q := range optimizerBenchMix {
		plan, err := luna.ParsePlan(q.plan)
		if err != nil {
			b.Fatalf("%s: %v", q.name, err)
		}
		res, err := svc.RunPlan(context.Background(), q.name, plan)
		if err != nil {
			b.Fatalf("%s: %v", q.name, err)
		}
		answer := fmt.Sprintf("%s|docs=%d", res.Answer.String(), len(res.Docs))
		for _, d := range res.Docs {
			answer += "," + d.ID
		}
		out.answers = append(out.answers, q.name+": "+answer)
		if res.Exec != nil {
			for _, ne := range res.Exec.Nodes {
				out.llmCalls += ne.Runtime.LLMCalls
				out.tokens += ne.Runtime.PromptTokens + ne.Runtime.CompletionTokens
			}
		}
		if optimize && res.Optimized == nil {
			b.Fatalf("%s: optimize enabled but no optimized plan produced", q.name)
		}
		if !optimize && res.Optimized != nil {
			b.Fatalf("%s: optimize disabled but an optimized plan was produced", q.name)
		}
	}
	out.wall = time.Since(start)
	return out
}

// BenchmarkOptimizer runs the mix once per mode up front to enforce the
// equivalence and ≥30% LLM-call-reduction contracts, then pins per-mode
// metrics under unoptimized/ and optimized/ sub-benchmarks.
func BenchmarkOptimizer(b *testing.B) {
	base := runOptimizerMix(b, false)
	opt := runOptimizerMix(b, true)

	if !reflect.DeepEqual(base.answers, opt.answers) {
		b.Fatalf("optimized mix diverged from unoptimized:\nunoptimized: %v\noptimized:   %v",
			base.answers, opt.answers)
	}
	if base.llmCalls == 0 {
		b.Fatal("unoptimized mix made no LLM calls; the mix no longer exercises the optimizer")
	}
	if limit := base.llmCalls * 7 / 10; opt.llmCalls > limit {
		b.Fatalf("optimizer saved too little: %d LLM calls optimized vs %d unoptimized (need <= %d, a 30%% cut)",
			opt.llmCalls, base.llmCalls, limit)
	}
	reduction := 100 * float64(base.llmCalls-opt.llmCalls) / float64(base.llmCalls)

	bench := func(optimize bool) func(*testing.B) {
		return func(b *testing.B) {
			var r optimizerMixResult
			for i := 0; i < b.N; i++ {
				r = runOptimizerMix(b, optimize)
			}
			b.ReportMetric(float64(r.llmCalls), "llm_calls")
			b.ReportMetric(float64(r.tokens), "llm_tokens")
			b.ReportMetric(float64(r.wall.Milliseconds()), "mix_wall_ms")
			if optimize {
				b.ReportMetric(reduction, "llm_call_cut_pct")
			}
		}
	}
	b.Run("unoptimized", bench(false))
	b.Run("optimized", bench(true))
}
