package luna

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// chainOps returns a chain-shaped plan's operators from root to output.
// Rewrites append the nodes they insert, so declaration order is not chain
// order; topological order is.
func chainOps(t *testing.T, p *LogicalPlan) []LogicalOp {
	t.Helper()
	order, err := p.topoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]LogicalOp, len(order))
	for i, idx := range order {
		ops[i] = p.Nodes[idx].LogicalOp
	}
	return ops
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
		LogicalOp{Op: OpLLMFilter, Question: "Does the document indicate birds?"},
		LogicalOp{Op: OpCount},
	)
	parsed, err := ParsePlan(plan.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Nodes) != 3 || parsed.Nodes[1].Question != plan.Nodes[1].Question {
		t.Errorf("round trip lost ops: %s", parsed.String())
	}
}

func TestParsePlanToleratesProse(t *testing.T) {
	text := "Sure! Here is the plan:\n{\"nodes\":[{\"id\":\"n1\",\"op\":\"count\"}]}\nHope that helps."
	plan, err := ParsePlan(text)
	if err != nil || len(plan.Nodes) != 1 {
		t.Fatalf("ParsePlan: %v", err)
	}
	if _, err := ParsePlan("no json here"); err == nil {
		t.Error("missing JSON should error")
	}
	if _, err := ParsePlan("{not valid json}"); err == nil {
		t.Error("bad JSON should error")
	}
}

func TestValidateRejects(t *testing.T) {
	schema := testSchema()
	cases := []struct {
		name string
		plan *LogicalPlan
	}{
		{"empty", &LogicalPlan{}},
		{"unknown op", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: "teleport"})},
		{"unknown field", Chain(LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "hallucinated", Kind: "term", Value: 1}}})},
		{"bad filter kind", Chain(LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "fuzzy", Value: 1}}})},
		{"group key unknown", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpGroupByAggregate, Key: "bogus", Agg: "count"})},
		{"agg field unknown", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpGroupByAggregate, Agg: "avg", ValueField: "bogus"})},
		{"bad agg", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "median"})},
		{"count not terminal", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpCount}, LogicalOp{Op: OpLimit, K: 5})},
		{"scan not root", Chain(LogicalOp{Op: OpCount})},
		{"midplan scan", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpQueryDatabase})},
		{"llmFilter empty", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMFilter})},
		{"project unknown field", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpProject, ProjectFields: []string{"bogus"}})},
		{"topK unknown field", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpTopK, Field: "bogus", K: 3})},
		{"cluster k=0", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMCluster})},
		{"negative sections", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part"}}, Sections: -1})},
		{"more than one section", Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part"}}, Sections: 2})},
	}
	for _, c := range cases {
		if err := Validate(c.plan, schema); err == nil {
			t.Errorf("%s: should be rejected", c.name)
		}
	}
}

func TestValidateAcceptsExtractedFields(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
		LogicalOp{Op: OpGroupByAggregate, Key: "damaged_part", Agg: "count"},
		LogicalOp{Op: OpTopK, Field: "value", K: 3},
	)
	if err := Validate(plan, testSchema()); err != nil {
		t.Errorf("extracted field should be usable downstream: %v", err)
	}
}

func TestRewriteFusesExtracts(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "a", Type: "string"}}},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "b", Type: "string"}, {Name: "a", Type: "string"}}},
		LogicalOp{Op: OpCount},
	)
	out := Rewrite(plan)
	extracts := 0
	for _, op := range out.Nodes {
		if op.Op == OpLLMExtract {
			extracts++
			if len(op.Fields) != 2 {
				t.Errorf("fused fields = %d, want 2 (deduped)", len(op.Fields))
			}
		}
	}
	if extracts != 1 {
		t.Errorf("extracts after fuse = %d", extracts)
	}
	if len(plan.Nodes) != 4 {
		t.Error("Rewrite must not mutate its input")
	}
}

func TestRewritePushesFilters(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
		LogicalOp{Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "term", Value: 1}}},
		LogicalOp{Op: OpCount},
	)
	out := Rewrite(plan)
	if len(out.Nodes) != 2 || len(out.Nodes[0].Filters) != 2 {
		t.Errorf("filters not pushed: %s", out.String())
	}
}

func TestRewriteDropsDuplicateLLMFilters(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: "q?"},
		LogicalOp{Op: OpLLMFilter, Question: "q?"},
		LogicalOp{Op: OpCount},
	)
	out := Rewrite(plan)
	n := 0
	for _, op := range out.Nodes {
		if op.Op == OpLLMFilter {
			n++
		}
	}
	if n != 1 {
		t.Errorf("duplicate llmFilter kept: %s", out.String())
	}
}

func TestRewriteDedupInsertion(t *testing.T) {
	plan := Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpCount})
	out := WithDedup(Rewrite(plan), "accidentNumber")
	ops := chainOps(t, out)
	if len(ops) != 3 || ops[1].Op != opDistinct || ops[1].Field != "accidentNumber" {
		t.Errorf("dedup not inserted: %s", out.String())
	}
	// The rule list must NOT insert it (that's the paper's bug).
	out2 := Optimize(plan)
	for _, op := range out2.Nodes {
		if op.Op == opDistinct {
			t.Error("dedup must stay out of the rule list")
		}
	}
}

// executorFixture indexes a small corpus and returns a ready executor.
func executorFixture(t *testing.T) (*Executor, *index.Store) {
	t.Helper()
	store := index.NewStore()
	mk := func(id, state, damage string, engines int, text string) {
		d := docmodel.New(id)
		d.SetProperty("accidentNumber", id)
		d.SetProperty("us_state", state)
		d.SetProperty("aircraftDamage", damage)
		d.SetProperty("engines", engines)
		d.Text = text
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	mk("A1", "KY", "Substantial", 1, "The airplane struck a flock of geese and sustained substantial damage to the left wing.")
	mk("A2", "KY", "Destroyed", 2, "The airplane entered a spin; substantial damage to the fuselage.")
	mk("A3", "CA", "Substantial", 1, "A hard landing resulted in substantial damage to the landing gear.")
	ec := docset.NewContext(docset.WithLLM(llm.NewSim(1)))
	return &Executor{EC: ec, Store: store}, store
}

func TestExecutorCount(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
		LogicalOp{Op: OpCount},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != AnswerNumber || res.Answer.Number != 2 {
		t.Errorf("count = %+v", res.Answer)
	}
	if res.Trace == nil || res.Compiled == "" {
		t.Error("trace/compiled missing")
	}
}

func TestExecutorGroupAndTopK(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "count"},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Table["KY"] != 2 || res.Answer.Table["CA"] != 1 {
		t.Errorf("table = %v", res.Answer.Table)
	}

	res2, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "count"},
		LogicalOp{Op: OpTopK, Field: "value", K: 1},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answer.List) != 1 || res2.Answer.List[0] != "KY" {
		t.Errorf("top = %v", res2.Answer.List)
	}
}

func TestExecutorGlobalAggregate(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpGroupByAggregate, Key: "", Agg: "max", ValueField: "engines"},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != AnswerNumber || res.Answer.Number != 2 {
		t.Errorf("global max = %+v", res.Answer)
	}
}

func TestExecutorFraction(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}},
		LogicalOp{Op: OpFraction, Question: "Does the document indicate birds?"},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Number != 0.5 { // A1 of {A1, A3}
		t.Errorf("fraction = %v", res.Answer.Number)
	}
}

// A fraction's predicate is a stage of the query's own pipeline, so it
// computes under the query's worker budget beside the stages upstream of it:
// never more than Parallelism busy workers (the probe of docset's
// TestQueryScopeBudgetCapsBusyWorkers, hooked into every map-stage attempt).
func TestFractionRunsUnderQueryBudget(t *testing.T) {
	const parallelism = 2
	var busy, peak atomic.Int64
	gauge := func(string) error {
		n := busy.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		busy.Add(-1)
		return nil
	}
	ex := &Executor{Store: equivCorpus(t), EC: docset.NewContext(docset.WithLLM(llm.NewSim(1)),
		docset.WithParallelism(parallelism), docset.WithFaultHook(gauge))}
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: qPilot},
		LogicalOp{Op: OpFraction, Question: qFire},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Exec.Node("n3")
	if frac == nil || frac.Runtime.DocsIn <= parallelism || frac.Runtime.LLMCalls != frac.Runtime.DocsIn {
		t.Fatalf("fraction node did not run as a stage over more documents than the budget: %+v", frac)
	}
	if want := float64(frac.Runtime.DocsOut) / float64(frac.Runtime.DocsIn); res.Answer.Number != want || len(res.Docs) != int(frac.Runtime.DocsOut) {
		t.Errorf("answer %v over %d docs, node passed %d of %d", res.Answer.Number, len(res.Docs), frac.Runtime.DocsOut, frac.Runtime.DocsIn)
	}
	if got := peak.Load(); got > parallelism {
		t.Errorf("peak busy workers = %d, want <= %d (the fraction stage shares the query's budget)", got, parallelism)
	}
}

func TestExecutorProjectAndDistinct(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: opDistinct, Field: "us_state"},
		LogicalOp{Op: OpProject, ProjectFields: []string{"us_state"}},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer.List) != 2 {
		t.Errorf("distinct projection = %v", res.Answer.List)
	}
}

func TestExecutorLLMFilterAndGenerate(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: "Does the document indicate birds?"},
		LogicalOp{Op: OpLLMGenerate, Instruction: "summarize"},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != AnswerText || !strings.Contains(res.Answer.Text, "geese") {
		t.Errorf("generate = %+v", res.Answer)
	}
}

func TestExecutorRejectsBadPlans(t *testing.T) {
	ex, _ := executorFixture(t)
	if _, err := ex.Run(context.Background(), &LogicalPlan{}, StreamHooks{}); err == nil {
		t.Error("empty plan should fail")
	}
	if _, err := ex.Run(context.Background(), Chain(LogicalOp{Op: "bogus"}), StreamHooks{}); err == nil {
		t.Error("bogus root should fail")
	}

	// Run and Compile report every structural fault at once, in Validate's
	// words: the executor and the validator share one check.
	bad := &LogicalPlan{Nodes: []PlanNode{
		{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpCount}},
		{ID: "n3", Inputs: []string{"n2"}, LogicalOp: LogicalOp{Op: "bogus"}},
		{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{Op: OpJoin, LeftKey: "us_state", RightKey: "us_state"}},
	}, Output: "n4"}
	want := []string{
		"node n2: count must be the output node",
		`node n3: unknown operator "bogus"`,
		"node n4: join takes exactly 2 inputs (left, right), got 1",
	}
	_, runErr := ex.Run(context.Background(), bad.Clone(), StreamHooks{})
	_, compileErr := ex.Compile(bad.Clone())
	for name, err := range map[string]error{"Run": runErr, "Compile": compileErr, "Validate": Validate(bad.Clone(), Schema{})} {
		if !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: error %v does not match ErrInvalidPlan", name, err)
		}
		if got := Issues(err); !slices.Equal(got, want) {
			t.Errorf("%s: issues = %q, want %q", name, got, want)
		}
	}
}

func TestServiceEndToEndWithPlannerSkill(t *testing.T) {
	ex, store := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{
		Planner:  NewPlanner(sim, InferSchema(store)),
		Executor: ex,
	}
	res, err := svc.Ask(context.Background(), "How many incidents were there in Kentucky?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Number != 2 {
		t.Errorf("end-to-end count = %v", res.Answer.Number)
	}
	if res.Plan == nil || res.Rewritten == nil {
		t.Error("plans missing from result")
	}
}

func TestRunPlanValidatesUserEdits(t *testing.T) {
	ex, store := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{Planner: NewPlanner(sim, InferSchema(store)), Executor: ex}
	bad := Chain(LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "nope", Kind: "term", Value: 1}}})
	if _, err := svc.RunPlan(context.Background(), "q", bad); err == nil {
		t.Error("user-edited invalid plan must be rejected")
	}
	good := Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpCount})
	res, err := svc.RunPlan(context.Background(), "q", good)
	if err != nil || res.Answer.Number != 3 {
		t.Errorf("RunPlan: %v %v", res, err)
	}
}

func TestConversationFollowUpMergesFilters(t *testing.T) {
	ex, store := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	conv := NewConversation(&Service{Planner: NewPlanner(sim, InferSchema(store)), Executor: ex})
	ctx := context.Background()
	first, err := conv.Ask(ctx, "How many incidents involved substantial damage?")
	if err != nil {
		t.Fatal(err)
	}
	if first.Answer.Number != 2 {
		t.Fatalf("first = %v", first.Answer.Number)
	}
	second, err := conv.Ask(ctx, "show only results in California")
	if err != nil {
		t.Fatal(err)
	}
	if second.Answer.Number != 1 {
		t.Errorf("follow-up should keep damage filter and add CA: %v", second.Answer.Number)
	}
	if conv.Last() != second || len(conv.History) != 2 {
		t.Error("history bookkeeping wrong")
	}
}

// TestConversationFollowUpReferringWords: in "only those involving birds"
// the word "those" points at the previous result. It used to become a
// predicate of its own ("Does the document indicate those?"), which no
// report satisfies, so the follow-up answered 0.
func TestConversationFollowUpReferringWords(t *testing.T) {
	store := index.NewStore()
	for id, text := range map[string]string{
		"F1": "A fire broke out in the engine bay after landing.",
		"B1": "The airplane struck birds on the climb out.",
		"FB": "Birds were ingested on takeoff and a fire followed in the left engine.",
		"N1": "The nose gear collapsed during the landing roll.",
	} {
		d := docmodel.New(id)
		d.SetProperty("accidentNumber", id)
		d.Text = text
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{
		Planner:  NewPlanner(sim, InferSchema(store)),
		Executor: &Executor{EC: docset.NewContext(docset.WithLLM(llm.NewSim(1))), Store: store},
	}
	conv := NewConversation(svc)
	ctx := context.Background()
	if _, err := conv.Ask(ctx, "How many incidents involved a fire?"); err != nil {
		t.Fatal(err)
	}
	followUp, err := conv.Ask(ctx, "only those involving birds")
	if err != nil {
		t.Fatal(err)
	}
	var asked []string
	for _, op := range chainOps(t, followUp.Plan) {
		if op.Op == OpLLMFilter {
			asked = append(asked, op.Question)
		}
	}
	// New predicates land directly after the scan, ahead of the old ones.
	fire, birds := "Does the document indicate fire?", "Does the document indicate birds?"
	if !reflect.DeepEqual(asked, []string{birds, fire}) {
		t.Fatalf("follow-up plans filters %q, want exactly the fire and birds filters", asked)
	}
	direct, err := svc.RunPlan(ctx, "direct", Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: fire},
		LogicalOp{Op: OpLLMFilter, Question: birds},
		LogicalOp{Op: OpCount}))
	if err != nil {
		t.Fatal(err)
	}
	if followUp.Answer.String() != direct.Answer.String() || direct.Answer.Number != 1 {
		t.Errorf("follow-up answered %s, the two-filter plan %s; want both 1 (FB)", followUp.Answer, direct.Answer)
	}
}

func TestSchemaInferAndPromptRoundTrip(t *testing.T) {
	_, store := executorFixture(t)
	schema := InferSchema(store)
	if schema.Field("us_state") == nil || schema.Field("engines") == nil {
		t.Fatalf("schema = %+v", schema)
	}
	if schema.Field("engines").Type != "int" {
		t.Errorf("engines type = %s", schema.Field("engines").Type)
	}
	prompt := BuildPlanPrompt(schema, "How many?")
	back := parseSchemaBlock(prompt)
	if len(back.Fields) != len(schema.Fields) {
		t.Errorf("prompt round trip lost fields: %d vs %d", len(back.Fields), len(schema.Fields))
	}
	if promptQuestion(prompt) != "How many?" {
		t.Errorf("question round trip: %q", promptQuestion(prompt))
	}
}

func TestAnswerString(t *testing.T) {
	if NumberAnswer(3).String() != "3" {
		t.Error("int render")
	}
	if NumberAnswer(0.125).String() != "0.125" {
		t.Error("float render")
	}
	if got := TableAnswer(map[string]float64{"b": 2, "a": 1}).String(); got != "a=1, b=2" {
		t.Errorf("table render = %q", got)
	}
	if ListAnswer("x", "y").String() != "x, y" {
		t.Error("list render")
	}
	r := Answer{Refused: true, Text: "no"}
	if !strings.Contains(r.String(), "refused") {
		t.Error("refusal render")
	}
}

func TestExecutorVectorRoot(t *testing.T) {
	ex, store := executorFixture(t)
	// Index chunks so the vector root has something to search.
	em := ex.EC.Embedder
	for _, d := range store.Documents() {
		err := store.PutChunk(index.Chunk{ID: d.ID + "-c", ParentID: d.ID, Text: d.Text, Vector: em.Embed(d.Text)})
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryVectorDatabase, Query: "flock of geese bird strike"},
		LogicalOp{Op: OpLimit, K: 1},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 1 || res.Docs[0].ID != "A1" {
		t.Fatalf("vector root = %v", res.Docs)
	}
}

func TestPlannerRepairLoop(t *testing.T) {
	// First response is an invalid plan; the planner re-prompts with the
	// validator's feedback and accepts the corrected plan.
	scripted := &llm.Scripted{Responses: []llm.Response{
		{Text: `{"nodes":[{"id":"n1","op":"teleport"}]}`},
		{Text: `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}`},
	}}
	p := NewPlanner(scripted, testSchema())
	plan, err := p.Plan(context.Background(), "How many incidents?")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || scripted.Calls() != 2 {
		t.Fatalf("repair loop: calls=%d", scripted.Calls())
	}
	// Repeated invalid plans exhaust MaxRepairs.
	bad := &llm.Scripted{Responses: []llm.Response{{Text: `{"nodes":[{"id":"n1","op":"teleport"}]}`}}}
	p2 := NewPlanner(bad, testSchema())
	if _, err := p2.Plan(context.Background(), "q"); err == nil {
		t.Error("persistent invalid plans should fail")
	}
}

func TestConversationLastEmpty(t *testing.T) {
	conv := NewConversation(nil)
	if conv.Last() != nil {
		t.Error("empty conversation Last should be nil")
	}
}

func TestSchemaTypeInference(t *testing.T) {
	store := index.NewStore()
	d := docmodel.New("x")
	d.SetProperty("i", 1)
	d.SetProperty("f", 1.5)
	d.SetProperty("b", true)
	d.SetProperty("s", "str")
	if err := store.PutDocument(d); err != nil {
		t.Fatal(err)
	}
	// Mixed types degrade to string.
	d2 := docmodel.New("y")
	d2.SetProperty("i", "not a number")
	if err := store.PutDocument(d2); err != nil {
		t.Fatal(err)
	}
	schema := InferSchema(store)
	for field, want := range map[string]string{"i": "string", "f": "float", "b": "bool", "s": "string"} {
		if got := schema.Field(field).Type; got != want {
			t.Errorf("type(%s) = %s, want %s", field, got, want)
		}
	}
}
