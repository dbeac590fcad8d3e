package luna

// Equivalence suite for the rule list: every representative plan below
// executes three times against identically-seeded fresh systems — as the
// planner wrote it, with no rule applied (the reference), after the exact
// rules (Rewrite: extract and filter fusion, pushdown, predicate hoisting)
// and after the whole list (Optimize: proxy cascades and scoped extracts as
// well) — and the results must be byte-identical while each step spends no
// more LLM calls than the one before, a scoped extract's second, whole-
// document asks aside. This is the semantics-preservation contract that lets
// the exact rules run on every query. The approximate rules pass it here
// because the corpus below has a controlled vocabulary; on real report text
// the cascade's drop rung is approximate (core.TestCascadeFalseDrops) and
// the scope is held to zero changed values (core.TestScopedExtractValues).

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"aryn/internal/cost"
	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// Single-concept predicate questions: the sim's filter matcher resolves
// these deterministically (one concept group → lexical presence decides),
// so commutation and cascade checks are exact, not probabilistic.
const (
	qFire  = "Does the report mention a fire?"
	qBirds = "Does the report mention birds?"
	qFuel  = "Does the report mention fuel?"
	qIce   = "Does the report mention ice?"
	qPilot = "Does the report mention a pilot?"
)

// equivCorpus indexes 16 documents with controlled topic vocabulary:
// fire in 4, birds in 3, fuel in 6, ice in 3, pilot in 13. Texts avoid
// the sim lexicon's synonym sets for topics they should not match. Two
// documents also carry sections, for the scoped extract: A10's damage
// sentence is in the section its terms rank first, A12's in the other one,
// so a scoped llmExtract answers A10 from the scope and asks A12 whole.
func equivCorpus(t *testing.T) *index.Store {
	t.Helper()
	store := index.NewStore()
	docs := []struct {
		id, state, damage string
		engines           int
		text              string
	}{
		{"A01", "KY", "Substantial", 1, "The pilot reported a fire in the engine compartment. Fuel was leaking from the line."},
		{"A02", "KY", "Destroyed", 2, "A fire erupted after the hard landing. The pilot escaped without harm."},
		{"A03", "KY", "Substantial", 1, "The pilot saw birds near the runway. Several birds struck the windshield."},
		{"A04", "KY", "Minor", 1, "Fuel pressure dropped during cruise. The pilot diverted to a nearby field."},
		{"A05", "CA", "Substantial", 2, "Ice accumulated on the wings during descent. The pilot lost airspeed."},
		{"A06", "CA", "Destroyed", 1, "The airplane ran out of fuel short of the airport. The pilot made a forced approach."},
		{"A07", "CA", "Substantial", 1, "Birds were reported over the threshold. The pilot executed a go-around."},
		{"A08", "CA", "Minor", 2, "A small fire started in the cabin heater. Fuel fumes were noted by the pilot."},
		{"A09", "TX", "Substantial", 1, "The pilot encountered ice at altitude. Fuel flow remained normal."},
		{"A10", "TX", "Destroyed", 1, "The airplane struck a deer on the runway. The pilot was uninjured."},
		{"A11", "TX", "Substantial", 2, "Fuel contamination was found in the left tank. The pilot had sampled it before departure."},
		{"A12", "TX", "Minor", 1, "The canopy latch released in flight. The airplane landed without further event."},
		{"A13", "FL", "Substantial", 1, "Birds gathered on the taxiway. The airplane aborted its takeoff roll."},
		{"A14", "FL", "Destroyed", 2, "A fire consumed the airframe after impact. Witnesses called for help."},
		{"A15", "FL", "Substantial", 2, "Ice formed inside the carburetor. The pilot applied heat too late."},
		{"A16", "FL", "Minor", 1, "The tow bar was left attached. The pilot stopped the taxi immediately."},
	}
	for _, d := range docs {
		doc := docmodel.New(d.id)
		doc.SetProperty("accidentNumber", d.id)
		doc.SetProperty("us_state", d.state)
		doc.SetProperty("aircraftDamage", d.damage)
		doc.SetProperty("engines", d.engines)
		doc.Text = d.text
		for _, e := range equivSections[d.id] {
			doc.AddElement(&docmodel.Element{Type: e.typ, Text: e.text})
		}
		if err := store.PutDocument(doc); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// equivSections are the elements of equivCorpus's sectioned documents.
var equivSections = map[string][]struct {
	typ  docmodel.ElementType
	text string
}{
	"A10": {
		{docmodel.SectionHeader, "Analysis"},
		{docmodel.Text, "The collision resulted in damage to the left wing. The damaged panel was replaced."},
		{docmodel.SectionHeader, "Administrative Information"},
		{docmodel.Text, "The docket was closed in March."},
	},
	"A12": {
		{docmodel.SectionHeader, "Analysis"},
		{docmodel.Text, "The frame was damaged and the hinge was damaged when the latch let go."},
		{docmodel.SectionHeader, "Administrative Information"},
		{docmodel.Text, "Inspectors recorded damage to the canopy rail."},
	},
}

// newEquivService wires a fresh, identically-seeded system. Fresh per run
// so the optimized and unoptimized executions cannot share an LLM cache —
// call counts stay honest.
func newEquivService(t *testing.T, optimize bool, model *cost.Model) *Service {
	t.Helper()
	store := equivCorpus(t)
	ec := docset.NewContext(docset.WithLLM(llm.NewSim(1)))
	return &Service{
		Planner:  NewPlanner(llm.NewSim(1), InferSchema(store)),
		Executor: &Executor{EC: ec, Store: store},
		Cost:     model,
		Optimize: optimize,
	}
}

// equivalencePlans is the representative DAG mix: filter chains of every
// depth the optimizer fuses (one only a hoist makes adjacent, one resubmitted
// already fused), hoistable deterministic predicates,
// extract/group/fraction/project consumers, joins, and a diamond.
func equivalencePlans() []struct {
	name string
	plan *LogicalPlan
} {
	return []struct {
		name string
		plan *LogicalPlan
	}{
		{"count-after-fire", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qFire},
			LogicalOp{Op: OpCount})},
		{"state-scan-fuel", Chain(
			LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: OpCount})},
		{"two-filter-chain", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpLLMFilter, Question: qFire},
			LogicalOp{Op: OpCount})},
		{"three-filter-chain", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: OpLLMFilter, Question: qIce},
			LogicalOp{Op: OpCount})},
		{"fuse-across-hoist", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "term", Value: 1}}},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: OpCount})},
		{"resubmitted-fused", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilterCascade, Questions: []string{qPilot, qFuel}, Low: docset.DefaultCascadeLow, High: docset.DefaultCascadeHigh},
			LogicalOp{Op: OpLLMFilter, Question: qIce},
			LogicalOp{Op: OpCount})},
		{"hoist-basic-filter", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "term", Value: 1}}},
			LogicalOp{Op: OpCount})},
		{"hoist-past-extract", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
			LogicalOp{Op: OpBasicFilter, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "TX"}}},
			LogicalOp{Op: OpCount})},
		{"scoped-extract-topk", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
			LogicalOp{Op: OpGroupByAggregate, Key: "damaged_part", Agg: "count"},
			LogicalOp{Op: OpTopK, Field: "value", K: 3})},
		{"resubmitted-scoped", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}, Sections: 1},
			LogicalOp{Op: OpProject, ProjectFields: []string{"damaged_part"}})},
		{"filter-then-group", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "count"})},
		{"fraction-of-filtered", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpFraction, Question: qFire})},
		{"project-birds", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qBirds},
			LogicalOp{Op: OpProject, ProjectFields: []string{"us_state"}})},
		{"distinct-states", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: opDistinct, Field: "us_state"},
			LogicalOp{Op: OpProject, ProjectFields: []string{"us_state"}})},
		{"limit-after-filter", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qFuel},
			LogicalOp{Op: OpLimit, K: 3},
			LogicalOp{Op: OpProject, ProjectFields: []string{"accidentNumber"}})},
		{"generate-fires", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qFire},
			LogicalOp{Op: OpLLMGenerate, Instruction: "summarize the fire reports"})},
		{"topk-grouped", Chain(
			LogicalOp{Op: OpQueryDatabase},
			LogicalOp{Op: OpLLMFilter, Question: qPilot},
			LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "count"},
			LogicalOp{Op: OpTopK, Field: "value", K: 2})},
		{"join-then-filter", &LogicalPlan{
			Nodes: []PlanNode{
				{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase,
					Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}}},
				{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase,
					Filters: []FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}}},
				{ID: "n3", Inputs: []string{"n1", "n2"}, LogicalOp: LogicalOp{Op: OpJoin,
					LeftKey: "accidentNumber", RightKey: "accidentNumber", JoinKind: "inner", Prefix: "right"}},
				{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{Op: OpLLMFilter, Question: qFuel}},
				{ID: "n5", Inputs: []string{"n4"}, LogicalOp: LogicalOp{Op: OpCount}},
			},
			Output: "n5",
		}},
		{"diamond-join", &LogicalPlan{
			Nodes: []PlanNode{
				{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase,
					Filters: []FilterSpec{{Field: "engines", Kind: "term", Value: 1}}}},
				{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpLLMFilter, Question: qPilot}},
				{ID: "n3", LogicalOp: LogicalOp{Op: OpQueryDatabase,
					Filters: []FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}}},
				{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{Op: OpLLMFilter, Question: qIce}},
				{ID: "n5", Inputs: []string{"n2", "n4"}, LogicalOp: LogicalOp{Op: OpJoin,
					LeftKey: "accidentNumber", RightKey: "accidentNumber", JoinKind: "inner", Prefix: "right"}},
				{ID: "n6", Inputs: []string{"n5"}, LogicalOp: LogicalOp{Op: OpCount}},
			},
			Output: "n6",
		}},
	}
}

// runEquiv executes a plan on a fresh system with the optimize phase set
// as given and returns the result plus its total LLM call count.
func runEquiv(t *testing.T, plan *LogicalPlan, optimize bool) (*Result, int64) {
	t.Helper()
	svc := newEquivService(t, optimize, cost.NewModel(cost.NewStore()))
	res, err := svc.RunPlan(context.Background(), "equiv", plan.Clone())
	if err != nil {
		t.Fatalf("optimize=%v: %v", optimize, err)
	}
	return res, sumLLMCalls(res.Exec)
}

// runRaw executes a plan on a fresh system exactly as written — straight
// through Executor.Run, no rule applied: the reference leg.
func runRaw(t *testing.T, plan *LogicalPlan) (*Result, int64) {
	t.Helper()
	svc := newEquivService(t, false, nil)
	res, err := svc.Executor.Run(context.Background(), plan.Clone(), StreamHooks{})
	if err != nil {
		t.Fatalf("raw: %v", err)
	}
	return res, sumLLMCalls(res.Exec)
}

func sumLLMCalls(d *ExecDetail) int64 {
	if d == nil {
		return 0
	}
	var n int64
	for _, ne := range d.Nodes {
		n += ne.Runtime.LLMCalls
	}
	return n
}

func docIDs(res *Result) []string {
	ids := make([]string, 0, len(res.Docs))
	for _, d := range res.Docs {
		ids = append(ids, d.ID)
	}
	return ids
}

// TestOptimizerEquivalence runs the 19 representative plans and the six
// optimizer-mix plans (rewrite_test.go) three ways: raw (no rule), through
// Rewrite (optimize off) and through Optimize (optimize on). Both rewritten
// forms must give the raw plan's answer and documents, byte for byte, and
// the calls must not grow from one leg to the next; the mix — one plan
// shape per rule — must also come in at 70% of the raw plan's calls or
// fewer with the whole list, the bar the optimizer ships under.
func TestOptimizerEquivalence(t *testing.T) {
	type equivCase struct {
		name string
		plan *LogicalPlan
		mix  bool
	}
	scopedReasks := map[string]int64{"hoist-past-extract": 1, "scoped-extract-topk": 1, "resubmitted-scoped": 1}
	var cases []equivCase
	for _, tc := range equivalencePlans() {
		cases = append(cases, equivCase{tc.name, tc.plan, false})
	}
	for _, tc := range optimizerMixPlans {
		plan, err := ParsePlan(tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cases = append(cases, equivCase{"mix-" + tc.name, plan, true})
	}

	answerJSON := func(t *testing.T, res *Result) string {
		b, err := json.Marshal(res.Answer)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var totalRaw, totalOff, totalOn, mixRaw, mixOn int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, callsRaw := runRaw(t, tc.plan)
			off, callsOff := runEquiv(t, tc.plan, false)
			on, callsOn := runEquiv(t, tc.plan, true)

			for leg, res := range map[string]*Result{"rewritten": off, "optimized": on} {
				if want, got := answerJSON(t, raw), answerJSON(t, res); got != want {
					t.Errorf("%s answer diverges from the raw plan's:\n  raw: %s\n  got: %s", leg, want, got)
				}
				if !reflect.DeepEqual(docIDs(raw), docIDs(res)) {
					t.Errorf("%s result docs diverge from the raw plan's:\n  raw: %v\n  got: %v", leg, docIDs(raw), docIDs(res))
				}
			}
			// A scoped extract that asks a document again whole spends a
			// second call on it (the first read a fraction of the tokens):
			// A12, in the three plans that extract from it.
			var reasked int64
			for _, ne := range on.Exec.Nodes {
				if ne.Op == OpLLMExtract {
					reasked += ne.Runtime.Escalations
				}
			}
			if want := scopedReasks[tc.name]; reasked != want {
				t.Errorf("scoped extracts asked %d documents again whole, want %d", reasked, want)
			}
			if callsOff > callsRaw || callsOn-reasked > callsOff {
				t.Errorf("LLM calls grew along raw -> rewritten -> optimized: %d, %d, %d (%d of them re-asks)", callsRaw, callsOff, callsOn, reasked)
			}
			if off.Optimized != nil {
				t.Error("unoptimized result must not carry an optimized plan")
			}
			if on.Optimized == nil {
				t.Error("optimized result must carry the optimized plan")
			}
			totalRaw += callsRaw
			totalOff += callsOff
			totalOn += callsOn
			if tc.mix {
				mixRaw += callsRaw
				mixOn += callsOn
			}
		})
	}
	// Across the whole suite each step must actually save something — equal
	// counts would mean the exact rules, or the cascade rung, are a no-op.
	if totalOff >= totalRaw || totalOn >= totalOff {
		t.Errorf("no aggregate savings: %d calls raw, %d rewritten, %d optimized", totalRaw, totalOff, totalOn)
	}
	if mixRaw == 0 {
		t.Fatal("raw mix made no LLM calls; the mix no longer exercises the rules")
	}
	if limit := mixRaw * 7 / 10; mixOn > limit {
		t.Errorf("the rule list saved too little on the mix: %d LLM calls optimized vs %d raw (need <= %d, a 30%% cut)",
			mixOn, mixRaw, limit)
	}
	t.Logf("LLM calls: suite %d raw, %d rewritten, %d optimized; mix %d raw, %d optimized",
		totalRaw, totalOff, totalOn, mixRaw, mixOn)
}

// countingLLM counts what an execution sends through its client: one per
// request, one per request group.
type countingLLM struct {
	llm.Client
	calls atomic.Int64
}

func (c *countingLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.calls.Add(1)
	return c.Client.Complete(ctx, req)
}

func (c *countingLLM) CompleteGroup(ctx context.Context, g llm.Group) ([]llm.Response, error) {
	c.calls.Add(1)
	return llm.CompleteGroup(ctx, c.Client, g)
}

// TestExecAccountsForEveryModelCall is the accounting invariant of EXPLAIN
// ANALYZE: over the representative plans, optimize off and on, the plan
// nodes' llm_calls sum to exactly the calls the execution sent through the
// client — no operator works outside the trace.
func TestExecAccountsForEveryModelCall(t *testing.T) {
	var total int64
	for _, tc := range equivalencePlans() {
		for _, optimize := range []bool{false, true} {
			svc := newEquivService(t, optimize, cost.NewModel(cost.NewStore()))
			counter := &countingLLM{Client: svc.Executor.EC.LLM}
			svc.Executor.EC.LLM = counter
			res, err := svc.RunPlan(context.Background(), "accounting", tc.plan.Clone())
			if err != nil {
				t.Fatalf("%s optimize=%v: %v", tc.name, optimize, err)
			}
			if sent, traced := counter.calls.Load(), sumLLMCalls(res.Exec); sent != traced {
				t.Errorf("%s optimize=%v: execution sent %d calls, its plan nodes account for %d",
					tc.name, optimize, sent, traced)
			}
			total += counter.calls.Load()
		}
	}
	if total == 0 {
		t.Fatal("no plan called the model; the invariant checked nothing")
	}
}

// TestOptimizedResultAnnotations pins the observability contract: with the
// phase on, the result carries the optimized plan, both cost estimates,
// and an exec trace whose cascade node accounts for every input document.
func TestOptimizedResultAnnotations(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: qFire},
		LogicalOp{Op: OpCount})
	svc := newEquivService(t, true, cost.NewModel(cost.NewStore()))
	res, err := svc.RunPlan(context.Background(), "annotated", plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized == nil || res.Cost == nil || res.CostOptimized == nil {
		t.Fatalf("missing annotations: optimized=%v cost=%v costOptimized=%v",
			res.Optimized != nil, res.Cost != nil, res.CostOptimized != nil)
	}
	if res.ExecutedPlan() != res.Optimized {
		t.Error("ExecutedPlan must be the optimized plan when the phase ran")
	}
	var cascade *NodeExec
	for i, ne := range res.Exec.Nodes {
		if ne.Op == OpLLMFilterCascade {
			cascade = &res.Exec.Nodes[i]
		}
	}
	if cascade == nil {
		t.Fatalf("no cascade node in exec detail: %+v", res.Exec.Nodes)
	}
	r := cascade.Runtime
	if r.Escalations+r.ProxyKept+r.ProxyDropped != r.DocsIn {
		t.Errorf("cascade accounting: escalated %d + kept %d + dropped %d != in %d",
			r.Escalations, r.ProxyKept, r.ProxyDropped, r.DocsIn)
	}
	if r.LLMCalls > r.Escalations {
		t.Errorf("cascade spent %d calls on %d escalations", r.LLMCalls, r.Escalations)
	}
	// The estimates must cover the LLM-bearing node and mark totals.
	if res.Cost.LLMCalls <= 0 || res.Cost.Units <= 0 {
		t.Errorf("rewritten-plan estimate empty: %+v", res.Cost)
	}
}

// TestObservationsSkipErroredRuns guards the feedback store against
// poisoning: a cancelled execution must record nothing.
func TestObservationsSkipErroredRuns(t *testing.T) {
	model := cost.NewModel(cost.NewStore())
	svc := newEquivService(t, false, model)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: qFire},
		LogicalOp{Op: OpCount})
	if _, err := svc.RunPlan(ctx, "cancelled", plan); err == nil {
		t.Skip("cancelled run unexpectedly succeeded")
	}
	if n := model.Store.Len(); n != 0 {
		t.Errorf("errored run recorded %d signatures", n)
	}
}
