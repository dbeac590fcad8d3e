package luna

// Tests of the fuseLLMFilters rule and the fused node it writes: the node
// form (validation, round trip, display), the call-count guard that fails
// without the rule (and hoistBasicFilters' beside it), the token bound
// against the same rule list minus the rule under three cache regimes, the
// refinement sequence, and the fused node's estimate.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// withoutRule removes the named rule from the rule list for the rest of
// the (sub)test. Tests of this package do not run in parallel.
func withoutRule(t *testing.T, name string) {
	t.Helper()
	saved := rules
	rules = slices.DeleteFunc(slices.Clone(rules), func(r rule) bool { return r.name == name })
	if len(rules) == len(saved) {
		t.Fatalf("no rule %q in the list", name)
	}
	t.Cleanup(func() { rules = saved })
}

// meteredService is newEquivService with the production middleware stack
// (cache of the given capacity), whose usage is true upstream tokens, so
// tests read those and share answers between queries. A serial service runs
// one worker per stage, so calls reach the cache in nearly the plan's own
// order: only pipelined stages still interleave.
func meteredService(t *testing.T, optimize bool, capacity int, serial bool) (*Service, *llm.Stack) {
	t.Helper()
	store := equivCorpus(t)
	stackOpts := []llm.StackOption{llm.WithCacheCapacity(capacity)}
	ecOpts := []docset.Option{}
	if serial {
		ecOpts = append(ecOpts, docset.WithParallelism(1))
	}
	meter := llm.NewStack(llm.NewSim(1), stackOpts...)
	return &Service{
		Planner:  NewPlanner(meter, InferSchema(store)),
		Executor: &Executor{EC: docset.NewContext(append(ecOpts, docset.WithLLM(meter))...), Store: store},
		Optimize: optimize,
	}, meter
}

// runMetered executes plan and returns the result with the upstream tokens
// it cost.
func runMetered(t *testing.T, svc *Service, meter *llm.Stack, plan *LogicalPlan) (*Result, int) {
	t.Helper()
	before := meter.Usage()
	res, err := svc.RunPlan(context.Background(), "metered", plan.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return res, meter.Usage().Sub(before).Total()
}

func mixPlan(t *testing.T, name string) *LogicalPlan {
	t.Helper()
	for _, tc := range optimizerMixPlans {
		if tc.name == name {
			plan, err := ParsePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
	}
	t.Fatalf("no mix plan %q", name)
	return nil
}

func TestFusedNodeForm(t *testing.T) {
	schema := InferSchema(equivCorpus(t))
	fused := func(op LogicalOp) *LogicalPlan {
		return Chain(LogicalOp{Op: OpQueryDatabase}, op, LogicalOp{Op: OpCount})
	}
	valid := fused(LogicalOp{Op: OpLLMFilter, Questions: []string{qPilot, qFire}})
	if err := Validate(valid, schema); err != nil {
		t.Fatalf("fused node rejected: %v", err)
	}
	back, err := ParsePlan(valid.JSON())
	if err != nil || back.JSON() != valid.JSON() {
		t.Errorf("fused plan does not round-trip: %v\n%s", err, back.JSON())
	}
	if !strings.Contains(valid.JSON(), `"questions": [`) || strings.Contains(valid.JSON(), `"question":`) {
		t.Errorf("fused node must carry questions and no question:\n%s", valid.JSON())
	}
	if got, want := valid.Nodes[1].Describe(), fmt.Sprintf("llmFilter(%q AND %q)", qPilot, qFire); got != want {
		t.Errorf("Describe = %s, want %s", got, want)
	}
	compiled, err := (&Executor{EC: docset.NewContext(), Store: index.NewStore()}).Compile(valid)
	if err != nil || !strings.Contains(compiled, "llmFilter["+qPilot+" AND "+qFire+"]") {
		t.Errorf("compiled pipeline does not show the one fused stage: %v\n%s", err, compiled)
	}
	for name, op := range map[string]LogicalOp{
		"both forms":      {Op: OpLLMFilter, Question: qPilot, Questions: []string{qPilot, qFire}},
		"single in list":  {Op: OpLLMFilter, Questions: []string{qPilot}},
		"empty in list":   {Op: OpLLMFilter, Questions: []string{qPilot, ""}},
		"neither form":    {Op: OpLLMFilter},
		"retired cascade": {Op: "llmFilterCascade", Question: qPilot},
	} {
		if err := Validate(fused(op), schema); !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: Validate = %v, want ErrInvalidPlan", name, err)
		}
	}

	// Cloning a fused plan copies the list: a rewrite of the copy leaves
	// the original's questions alone.
	clone := valid.Clone()
	clone.Nodes[1].Questions[0] = "edited"
	if valid.Nodes[1].Questions[0] != qPilot {
		t.Error("Clone shares the questions slice")
	}
}

// TestFuseLLMFiltersRule walks the rule's edges: it merges only what it
// exclusively consumes, dedups questions, and
// an ancestor's fused question still suppresses a downstream duplicate.
func TestFuseLLMFiltersRule(t *testing.T) {
	filters := func(p *LogicalPlan) (out [][]string) {
		for _, op := range chainOps(t, p) {
			if op.Op == OpLLMFilter {
				out = append(out, op.questions())
			}
		}
		return out
	}
	root, count := LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpCount}

	same := Optimize(Chain(root, LogicalOp{Op: OpLLMFilter, Question: qPilot}, LogicalOp{Op: OpLLMFilter, Question: qPilot}, count))
	if got := filters(same); len(got) != 1 || !slices.Equal(got[0], []string{qPilot}) || same.Nodes[1].Question != qPilot {
		t.Errorf("a repeated question must stay one single-question node: %v", got)
	}

	// A filter two consumers read is not exclusively consumed.
	shared, err := ParsePlan(`{"nodes":[{"id":"a","op":"queryDatabase"},
		{"id":"b","inputs":["a"],"op":"llmFilter","question":"` + qPilot + `"},
		{"id":"c","inputs":["b"],"op":"llmFilter","question":"` + qFire + `"},
		{"id":"d","inputs":["b"],"op":"llmFilter","question":"` + qFuel + `"},
		{"id":"e","inputs":["c","d"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},
		{"id":"f","inputs":["e"],"op":"count"}],"output":"f"}`)
	if err != nil {
		t.Fatal(err)
	}
	if out := Optimize(shared); len(out.Nodes) != len(shared.Nodes) {
		t.Errorf("a diamond prefix was fused into one of its consumers:\n%s", out)
	}

	// dropDuplicateFilters reads fused ancestors and trims fused nodes, and
	// what it leaves fuses into the one node.
	dup := Chain(root,
		LogicalOp{Op: OpLLMFilter, Questions: []string{qPilot, qFire}},
		LogicalOp{Op: OpLLMFilter, Questions: []string{qFire, qFuel}},
		LogicalOp{Op: OpLLMFilter, Question: qPilot}, count)
	if got := filters(Rewrite(dup)); len(got) != 1 || !slices.Equal(got[0], []string{qPilot, qFire, qFuel}) {
		t.Errorf("a chain with repeated questions did not become one fused node: %v", got)
	}
	t.Run("without the rule", func(t *testing.T) {
		withoutRule(t, "fuseLLMFilters")
		if got := filters(Rewrite(dup)); len(got) != 2 || !slices.Equal(got[0], []string{qPilot, qFire}) || !slices.Equal(got[1], []string{qFuel}) {
			t.Errorf("duplicates of fused ancestors not dropped: %v", got)
		}
	})
}

// oneCallPerDocument is the named assertion fuseLLMFilters exists for: the
// plan has a single filter node, and that node called the model once per
// document — not once per question.
func oneCallPerDocument(res *Result) error {
	var nodes []NodeExec
	for _, ne := range res.Exec.Nodes {
		if ne.Op == OpLLMFilter {
			nodes = append(nodes, ne)
		}
	}
	if len(nodes) != 1 {
		return fmt.Errorf("%d filter nodes executed, want the one fused node", len(nodes))
	}
	r := nodes[0].Runtime
	if r.LLMCalls != r.DocsIn || len(r.Questions) < 2 {
		return fmt.Errorf("fused node made %d calls for %d documents over %d questions", r.LLMCalls, r.DocsIn, len(r.Questions))
	}
	return nil
}

// guardRule is the shape of a per-rule guard: over each plan the named
// assertion holds with the rule in the list and fails with it removed, the
// rule saves model calls, and the answer is the same either way.
func guardRule(t *testing.T, ruleName string, optimize bool, plans map[string]*LogicalPlan, holds func(*Result) error) {
	t.Helper()
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			with, withCalls := runEquiv(t, plan, optimize)
			if err := holds(with); err != nil {
				t.Errorf("with %s: %v", ruleName, err)
			}
			t.Run("without the rule", func(t *testing.T) {
				withoutRule(t, ruleName)
				without, withoutCalls := runEquiv(t, plan, optimize)
				if holds(without) == nil {
					t.Errorf("the guard assertion holds without %s: it guards nothing", ruleName)
				}
				if withCalls >= withoutCalls {
					t.Errorf("%s saved no calls: %d with, %d without", ruleName, withCalls, withoutCalls)
				}
				if with.Answer.String() != without.Answer.String() {
					t.Errorf("answers diverge: %q with, %q without", with.Answer.String(), without.Answer.String())
				}
			})
		})
	}
}

// TestFuseLLMFiltersGuard is the rule's guard: twin-hoist and the two- and
// three-filter chains ask the model once per document, and the assertion
// fails the moment the rule leaves the list.
func TestFuseLLMFiltersGuard(t *testing.T) {
	plans := map[string]*LogicalPlan{"twin-hoist": mixPlan(t, "twin-hoist")}
	for _, tc := range equivalencePlans() {
		if tc.name == "two-filter-chain" || tc.name == "three-filter-chain" {
			plans[tc.name] = tc.plan
		}
	}
	guardRule(t, "fuseLLMFilters", true, plans, oneCallPerDocument)
}

// predicateRunsFirst is the named assertion hoistBasicFilters exists for:
// no basicFilter executes downstream of the model (the predicate reached the
// scan and was pushed into it), so every node that calls the model reads
// fewer documents than the corpus holds.
func predicateRunsFirst(res *Result, corpus int64) error {
	for _, ne := range res.Exec.Nodes {
		if ne.Op == OpBasicFilter {
			return fmt.Errorf("basicFilter %s still executes as a stage of its own", ne.ID)
		}
		if r := ne.Runtime; r.LLMCalls > 0 && r.DocsIn >= corpus {
			return fmt.Errorf("%s %s read %d of %d documents: the predicate did not run first", ne.Op, ne.ID, r.DocsIn, corpus)
		}
	}
	return nil
}

// TestHoistBasicFiltersGuard is the rule's guard, with optimize off (the
// rule is exact and runs on every plan): a structured predicate written
// after an llmFilter or an llmExtract runs before it, and the assertion
// fails the moment the rule leaves the list.
func TestHoistBasicFiltersGuard(t *testing.T) {
	plans := map[string]*LogicalPlan{
		"state-fuel":      mixPlan(t, "state-fuel"),
		"destroyed-birds": mixPlan(t, "destroyed-birds"),
	}
	for _, tc := range equivalencePlans() {
		if tc.name == "hoist-basic-filter" || tc.name == "hoist-past-extract" {
			plans[tc.name] = tc.plan
		}
	}
	const corpus = 16 // equivCorpus
	guardRule(t, "hoistBasicFilters", false, plans, func(res *Result) error { return predicateRunsFirst(res, corpus) })
}

// fusionSlack is what fusing may add to a plan's cost: for every fused
// node, over every document of the corpus, the tokens of the question
// lines the packed prompt carries beyond the first question's solo prompt.
func fusionSlack(t *testing.T, optimized *LogicalPlan, store *index.Store) int {
	t.Helper()
	slack := 0
	for _, n := range optimized.Nodes {
		if len(n.Questions) < 2 {
			continue
		}
		members := make([]int, len(n.Questions))
		for i := range members {
			members[i] = i
		}
		for _, hit := range store.SearchDocs(index.Query{}) {
			g := filterGroupOf(t, n.Questions, hit.Doc)
			slack += llm.CountTokens(g.Pack(members).Prompt) - llm.CountTokens(g.Reqs[0].Prompt)
		}
	}
	return slack
}

// stageGroup is a model client that keeps the request group the llmFilter
// stage hands it and answers none of it, so the document passes.
type stageGroup struct{ g llm.Group }

func (s *stageGroup) Name() string { return "stage-group" }

func (s *stageGroup) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, errors.New("stageGroup takes request groups only")
}

func (s *stageGroup) CompleteGroup(_ context.Context, g llm.Group) ([]llm.Response, error) {
	s.g = g
	return make([]llm.Response, len(g.Reqs)), nil
}

// filterGroupOf returns the request group the llmFilter stage over
// questions sends for d.
func filterGroupOf(t testing.TB, questions []string, d *docmodel.Document) llm.Group {
	t.Helper()
	rec := &stageGroup{}
	ec := docset.NewContext(docset.WithLLM(rec))
	if _, err := docset.FromDocuments(ec, []*docmodel.Document{d}).LLMFilter(questions...).TakeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rec.g
}

// TestFusionCostBound tests the bound rather than arguing it: over the
// plans of the equivalence suite and the mix, the optimizer with
// fuseLLMFilters spends at most what the optimizer without it spends plus
// the extra question lines, with identical answers, and over the whole
// sequence it spends less. Cold (a fresh cache per plan) the bound holds
// plan by plan. Warm (one default cache across the sequence) and thrashing
// (one cache far smaller than the sequence's working set) it holds for
// every prefix of the sequence, not for every plan of it: a fused node
// never asks a question of a document another question's cached "no"
// settled, so a later plan asking that question alone can find fewer
// answers resident than it would after the chain. Those tokens are spent
// later, never twice.
//
// Which answers a 12-entry cache still holds depends on the order calls
// reach it, so the thrashing sequences run serially (meteredService) on one
// processor: the sums then move by a few hundred tokens from run to run at
// most, where fusion saves ≈ 800.
func TestFusionCostBound(t *testing.T) {
	var plans []*LogicalPlan
	var names []string
	for _, tc := range equivalencePlans() {
		plans, names = append(plans, tc.plan), append(names, tc.name)
	}
	for _, tc := range optimizerMixPlans {
		plans, names = append(plans, mixPlan(t, tc.name)), append(names, "mix-"+tc.name)
	}
	type spent struct {
		tokens  []int
		answers []string
		slack   []int
	}
	// capacity 0 means a fresh cache for every plan.
	sequence := func(t *testing.T, capacity int, serial bool) spent {
		var out spent
		svc, meter := meteredService(t, true, max(capacity, 1), serial)
		for _, plan := range plans {
			if capacity == 0 {
				svc, meter = meteredService(t, true, 4096, serial)
			}
			res, tokens := runMetered(t, svc, meter, plan)
			out.tokens = append(out.tokens, tokens)
			out.answers = append(out.answers, res.Answer.String())
			out.slack = append(out.slack, fusionSlack(t, res.Optimized, svc.Executor.Store))
		}
		return out
	}
	for _, mode := range []struct {
		name     string
		capacity int
		serial   bool
	}{{"cold", 0, false}, {"warm", 4096, false}, {"thrashing", 12, true}} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.serial {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			with := sequence(t, mode.capacity, mode.serial)
			var without spent
			t.Run("without the rule", func(t *testing.T) {
				withoutRule(t, "fuseLLMFilters")
				without = sequence(t, mode.capacity, mode.serial)
			})
			sumWith, sumWithout, sumSlack, fusedPlans := 0, 0, 0, 0
			for i, name := range names {
				if with.answers[i] != without.answers[i] {
					t.Errorf("%s: answers diverge: %q with fusion, %q without", name, with.answers[i], without.answers[i])
				}
				if mode.capacity == 0 && with.tokens[i] > without.tokens[i]+with.slack[i] {
					t.Errorf("%s: %d tokens with fusion > %d without + %d of question lines", name, with.tokens[i], without.tokens[i], with.slack[i])
				}
				if with.slack[i] > 0 {
					fusedPlans++
				}
				sumWith, sumWithout, sumSlack = sumWith+with.tokens[i], sumWithout+without.tokens[i], sumSlack+with.slack[i]
				if sumWith > sumWithout+sumSlack {
					t.Errorf("through %s: %d tokens with fusion > %d without + %d of question lines", name, sumWith, sumWithout, sumSlack)
				}
			}
			if fusedPlans < 5 {
				t.Errorf("only %d plans of the sequence fuse; the bound is barely exercised", fusedPlans)
			}
			if sumWith >= sumWithout {
				t.Errorf("fusion saved nothing over the sequence: %d tokens with, %d without", sumWith, sumWithout)
			}
			t.Logf("%s: %d tokens with fusion, %d without (%d plans fuse)", mode.name, sumWith, sumWithout, fusedPlans)
		})
	}
}

// TestRefinementSharesAnswers is the conversation pattern fusion must not
// break: ask A, then A and B. Because answers are keyed per question, the
// second, fused query finds every A resident: it spends nothing where A is
// "no" and asks the survivors B alone, by B's solo prompt — to the token
// what the un-fused chain spends, not a second pass over the corpus.
func TestRefinementSharesAnswers(t *testing.T) {
	first := Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMFilter, Question: qFuel}, LogicalOp{Op: OpCount})
	second := Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMFilter, Question: qFuel},
		LogicalOp{Op: OpLLMFilter, Question: qPilot}, LogicalOp{Op: OpCount})
	refine := func(t *testing.T) (res *Result, firstTokens, secondTokens int) {
		svc, meter := meteredService(t, true, 4096, false)
		_, firstTokens = runMetered(t, svc, meter, first)
		res, secondTokens = runMetered(t, svc, meter, second)
		return res, firstTokens, secondTokens
	}
	fused, firstTokens, fusedSecond := refine(t)
	if err := oneCallPerDocument(fused); err != nil {
		t.Fatalf("the second query did not run fused: %v", err)
	}
	var chained *Result
	var chainedSecond int
	t.Run("without the rule", func(t *testing.T) {
		withoutRule(t, "fuseLLMFilters")
		chained, _, chainedSecond = refine(t)
	})
	if fused.Answer.String() != chained.Answer.String() {
		t.Errorf("answers diverge: %q fused, %q chained", fused.Answer.String(), chained.Answer.String())
	}
	if fusedSecond != chainedSecond || fusedSecond*2 > firstTokens {
		t.Errorf("refinement cost %d tokens fused, %d chained, after a first query of %d: resident answers were asked again",
			fusedSecond, chainedSecond, firstTokens)
	}
	// 16 documents: the 10 without fuel are settled by the resident "no",
	// the 6 with fuel are asked about the pilot.
	if r := fused.Exec.Nodes[1].Runtime; r.LLMCalls != 16 || r.CacheHits != 10 || r.DocsOut != 6 {
		t.Errorf("fused node: %d calls, %d cache hits, %d out; want 16, 10, 6", r.LLMCalls, r.CacheHits, r.DocsOut)
	}
}

// TestFusedFilterEstimate: a fused llmFilter is estimated at one call per
// document however many questions it asks, its questions' default
// selectivities multiplying, and the estimate is the same before and after
// the plan runs.
func TestFusedFilterEstimate(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: qPilot},
		LogicalOp{Op: OpLLMFilter, Question: qFire},
		LogicalOp{Op: OpCount})
	svc := newEquivService(t, true)
	fused := Optimize(plan)
	before := EstimatePlan(fused, 16)
	if ne := before.Nodes[1]; len(fused.Nodes[1].questions()) != 2 || ne.DocsIn != 16 || ne.DocsOut != 4 || ne.LLMCalls != 16 {
		t.Errorf("fused estimate = %+v; want 16 documents in, 4 out, 16 calls", ne)
	}
	res, err := svc.RunPlan(context.Background(), "fused", plan.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := oneCallPerDocument(res); err != nil {
		t.Fatal(err)
	}
	if after := EstimatePlan(fused, 16); !reflect.DeepEqual(after, before) {
		t.Errorf("running the plan moved its estimate:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(res.CostOptimized, before) {
		t.Errorf("the executed result's estimate %+v is not the plan's %+v", res.CostOptimized, before)
	}
}

// A scoped llmExtract is priced at one call per document, as a whole one
// is; adjacent extracts fuse only when they read the same scope.
func TestScopedExtractEstimateAndFusion(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
		LogicalOp{Op: OpProject, ProjectFields: []string{"damaged_part"}})
	svc := newEquivService(t, true)
	res, err := svc.RunPlan(context.Background(), "scoped", plan.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if ne := res.CostOptimized.Nodes[1]; ne.LLMCalls != 16 {
		t.Errorf("estimate of the scoped extract = %+v; want 16 calls from defaults", ne)
	}
	// equivCorpus: A10 answers from its scope, A12 is asked again, the other
	// 14 have no sections.
	if r := res.Exec.Nodes[1].Runtime; r.ProxyKept != 1 || r.Escalations != 1 || r.LLMCalls != 17 {
		t.Fatalf("scoped extract ran %d from scope, %d again, %d calls; want 1, 1, 17", r.ProxyKept, r.Escalations, r.LLMCalls)
	}

	chain := func(first, second int) *LogicalPlan {
		return Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}, Sections: first},
			LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "phase", Type: "string"}}, Sections: second},
			LogicalOp{Op: OpProject, ProjectFields: []string{"damaged_part", "phase"}})
	}
	if got := Optimize(chain(0, 0)); len(got.Nodes) != 3 || got.Nodes[1].Sections != 1 || len(got.Nodes[1].Fields) != 2 {
		t.Errorf("two whole-document extracts must fuse and be scoped once:\n%s", got)
	}
	if got := Rewrite(chain(1, 0)); len(got.Nodes) != 4 || got.Nodes[1].Sections != 1 || got.Nodes[2].Sections != 0 {
		t.Errorf("a scoped and a whole-document extract must stay apart:\n%s", got)
	}
}

// llmCluster is k-means over embeddings (docset.LLMCluster): the estimate
// prices it at one proxy unit per document and no model call, which is what
// the execution then reports.
func TestEstimateLLMClusterCallsNoModel(t *testing.T) {
	svc := newEquivService(t, false)
	res, err := svc.RunPlan(context.Background(), "cluster", Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMCluster, K: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if ne := res.Cost.Nodes[1]; ne.LLMCalls != 0 || ne.Units != 16*UnitsPerProxy || res.Cost.LLMCalls != 0 {
		t.Errorf("llmCluster estimate = %+v (plan total %v calls); want 0 calls, %v units", ne, res.Cost.LLMCalls, 16*UnitsPerProxy)
	}
	if r := res.Exec.Node("n2").Runtime; r.LLMCalls != 0 || r.DocsOut != 16 {
		t.Errorf("llmCluster ran %d model calls over %d documents; want 0 over 16", r.LLMCalls, r.DocsOut)
	}
}
