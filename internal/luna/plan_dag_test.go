package luna

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aryn/internal/llm"
)

// joinFixturePlan is a two-root DAG: KY incidents inner-joined against
// substantially damaged incidents on accident number, then counted.
func joinFixturePlan() *LogicalPlan {
	return &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase,
				Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}}},
			{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase,
				Filters: []FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}}},
			{ID: "n3", Inputs: []string{"n1", "n2"}, LogicalOp: LogicalOp{Op: OpJoin,
				LeftKey: "accidentNumber", RightKey: "accidentNumber", JoinKind: "inner", Prefix: "right"}},
			{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{Op: OpCount}},
		},
		Output: "n4",
	}
}

func TestDAGGoldenEncode(t *testing.T) {
	plan := joinFixturePlan()
	got, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"nodes":[` +
		`{"id":"n1","op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},` +
		`{"id":"n2","op":"queryDatabase","filters":[{"field":"aircraftDamage","kind":"term","value":"Substantial"}]},` +
		`{"id":"n3","inputs":["n1","n2"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber","join_kind":"inner","prefix":"right"},` +
		`{"id":"n4","inputs":["n3"],"op":"count"}` +
		`],"output":"n4"}`
	if string(got) != want {
		t.Errorf("golden DAG encode mismatch:\n got %s\nwant %s", got, want)
	}

	// Decode the golden bytes back and re-encode: must be stable.
	var back LogicalPlan
	if err := json.Unmarshal([]byte(want), &back); err != nil {
		t.Fatal(err)
	}
	got2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != want {
		t.Errorf("DAG JSON round trip not stable:\n got %s\nwant %s", got2, want)
	}
}

func TestDAGRoundTripPreservesStructure(t *testing.T) {
	plan := joinFixturePlan()
	parsed, err := ParsePlan(plan.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Nodes) != 4 || parsed.Output != "n4" {
		t.Fatalf("round trip lost structure: %s", parsed.JSON())
	}
	join := parsed.node("n3")
	if join == nil || join.Op != OpJoin || len(join.Inputs) != 2 || join.LeftKey != "accidentNumber" {
		t.Errorf("join node lost params: %+v", join)
	}
}

// The legacy linear form {"ops": [...]} is no longer a plan: it decodes to
// a plan with no nodes, which validation and the executor both reject.
func TestLegacyLinearJSONRejected(t *testing.T) {
	legacy := `{"ops":[` +
		`{"op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},` +
		`{"op":"llmFilter","question":"Does the document indicate birds?"},` +
		`{"op":"count"}]}`
	plan, err := ParsePlan(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) != 0 || plan.Output != "" {
		t.Fatalf("legacy form decoded to a non-empty plan: %s", plan.JSON())
	}
	if err := Validate(plan, testSchema()); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("Validate(legacy) = %v, want ErrInvalidPlan", err)
	}
	ex, _ := executorFixture(t)
	if _, err := ex.Run(context.Background(), plan, StreamHooks{}); !errors.Is(err, ErrInvalidPlan) {
		t.Errorf("Run(legacy) = %v, want ErrInvalidPlan", err)
	}
}

// A chain decoded from the wire form and one built with Chain are the same
// plan: same compiled pipeline, same answer.
func TestDecodedChainExecutesIdentically(t *testing.T) {
	ex, _ := executorFixture(t)
	decoded, err := ParsePlan(`{"nodes":[` +
		`{"id":"n1","op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},` +
		`{"id":"n2","inputs":["n1"],"op":"count"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	direct := Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
		LogicalOp{Op: OpCount},
	)
	resDecoded, err := ex.Run(context.Background(), decoded, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	resDirect, err := ex.Run(context.Background(), direct, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if resDecoded.Answer.String() != resDirect.Answer.String() || resDecoded.Answer.Number != 2 {
		t.Errorf("decoded execution diverged: %q vs %q", resDecoded.Answer.String(), resDirect.Answer.String())
	}
	if resDecoded.Compiled != resDirect.Compiled {
		t.Errorf("decoded plan compiled differently:\n%s\nvs\n%s", resDecoded.Compiled, resDirect.Compiled)
	}
}

func TestValidateRejectsMalformedDAGs(t *testing.T) {
	schema := testSchema()
	cases := []struct {
		name string
		plan *LogicalPlan
		want string
	}{
		{"cycle", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", Inputs: []string{"n2"}, LogicalOp: LogicalOp{Op: OpLimit, K: 1}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpLimit, K: 1}},
		}, Output: "n2"}, "cycle"},
		{"dangling input", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"ghost"}, LogicalOp: LogicalOp{Op: OpCount}},
		}, Output: "n2"}, "dangling input"},
		{"duplicate id", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n1", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpCount}},
		}, Output: "n1"}, "duplicate node id"},
		{"unknown output", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		}, Output: "zz"}, "names no node"},
		{"dangling branch", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n3", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpCount}},
		}, Output: "n3"}, "does not feed the output"},
		{"join arity", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpJoin, LeftKey: "us_state", RightKey: "us_state"}},
		}, Output: "n2"}, "exactly 2 inputs"},
		{"join key provenance", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n3", Inputs: []string{"n1", "n2"}, LogicalOp: LogicalOp{Op: OpJoin, LeftKey: "hallucinated", RightKey: "us_state"}},
		}, Output: "n3"}, "left_key"},
		{"join kind", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n3", Inputs: []string{"n1", "n2"}, LogicalOp: LogicalOp{Op: OpJoin, LeftKey: "us_state", RightKey: "us_state", JoinKind: "cross"}},
		}, Output: "n3"}, "join kind"},
		{"count not sink", &LogicalPlan{Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpCount}},
			{ID: "n3", Inputs: []string{"n2"}, LogicalOp: LogicalOp{Op: OpLimit, K: 1}},
		}, Output: "n3"}, "must be the output"},
	}
	for _, c := range cases {
		err := Validate(c.plan, schema)
		if err == nil {
			t.Errorf("%s: should be rejected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q should mention %q", c.name, err, c.want)
		}
	}
}

func TestValidateAggregatesAllErrors(t *testing.T) {
	// Three independent problems: a hallucinated filter field, an empty
	// llmFilter question, and a bogus aggregation — all must surface in
	// one Validate call.
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "hallucinated", Kind: "term", Value: 1}}},
		LogicalOp{Op: OpLLMFilter},
		LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "median"},
	)
	err := Validate(plan, testSchema())
	if err == nil {
		t.Fatal("plan should be rejected")
	}
	issues := Issues(err)
	if len(issues) != 3 {
		t.Fatalf("want 3 aggregated issues, got %d: %q", len(issues), issues)
	}
	for _, want := range []string{"hallucinated", "llmFilter requires a question", "unknown aggregation"} {
		found := false
		for _, is := range issues {
			if strings.Contains(is, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("issues missing %q: %q", want, issues)
		}
	}
	if Issues(nil) != nil {
		t.Error("Issues(nil) should be nil")
	}
}

func TestValidateAcceptsJoinProvenance(t *testing.T) {
	plan := joinFixturePlan()
	if err := Validate(plan, testSchema()); err != nil {
		t.Fatalf("join plan should validate: %v", err)
	}
	// Downstream of an inner join, right-side fields are visible under
	// the prefix namespace.
	project := &LogicalPlan{Nodes: []PlanNode{
		plan.Nodes[0], plan.Nodes[1], plan.Nodes[2],
		{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{Op: OpProject,
			ProjectFields: []string{"accidentNumber", "right.aircraftDamage"}}},
	}, Output: "n4"}
	if err := Validate(project, testSchema()); err != nil {
		t.Errorf("prefixed right-side field should be in scope: %v", err)
	}
	// A semi join filters without enriching: the prefix namespace must
	// NOT leak downstream.
	semi := project.Clone()
	semi.node("n3").JoinKind = "semi"
	if err := Validate(semi, testSchema()); err == nil {
		t.Error("semi join must not expose right-side fields")
	}
}

func TestJoinPlanExecutesEndToEnd(t *testing.T) {
	ex, _ := executorFixture(t)
	res, err := ex.Run(context.Background(), joinFixturePlan(), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	// KY = {A1, A2}; Substantial = {A1, A3}; equijoin on accidentNumber
	// keeps exactly A1.
	if res.Answer.Kind != AnswerNumber || res.Answer.Number != 1 {
		t.Errorf("join count = %+v", res.Answer)
	}
	if !strings.Contains(res.Compiled, "join") {
		t.Errorf("compiled pipeline should contain the join stage:\n%s", res.Compiled)
	}
	if res.Trace == nil {
		t.Error("join execution should carry a trace")
	}

	// Enrichment variant: project the namespaced right-side field.
	plan := joinFixturePlan()
	plan.Nodes[3] = PlanNode{ID: "n4", Inputs: []string{"n3"}, LogicalOp: LogicalOp{
		Op: OpProject, ProjectFields: []string{"accidentNumber", "right.aircraftDamage"}}}
	res2, err := ex.Run(context.Background(), plan, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Answer.List) != 1 || res2.Answer.List[0] != "A1 / Substantial" {
		t.Errorf("join projection = %v", res2.Answer.List)
	}

	// Anti-join variant: KY incidents NOT substantially damaged -> A2.
	anti := joinFixturePlan()
	anti.node("n3").JoinKind = "anti"
	res3, err := ex.Run(context.Background(), anti, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Answer.Number != 1 {
		t.Errorf("anti join count = %v", res3.Answer.Number)
	}
}

func TestRewriteOperatesOnDAGBranches(t *testing.T) {
	// basicFilter and duplicate llmFilter on separate join branches must
	// both be optimized; the join itself must survive untouched.
	plan := &LogicalPlan{Nodes: []PlanNode{
		{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		{ID: "f1", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpBasicFilter,
			Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}}},
		{ID: "n2", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		{ID: "x1", Inputs: []string{"n2"}, LogicalOp: LogicalOp{Op: OpLLMExtract,
			Fields: []llm.FieldSpec{{Name: "a", Type: "string"}}}},
		{ID: "x2", Inputs: []string{"x1"}, LogicalOp: LogicalOp{Op: OpLLMExtract,
			Fields: []llm.FieldSpec{{Name: "b", Type: "string"}}}},
		{ID: "j", Inputs: []string{"f1", "x2"}, LogicalOp: LogicalOp{Op: OpJoin,
			LeftKey: "accidentNumber", RightKey: "a"}},
		{ID: "c", Inputs: []string{"j"}, LogicalOp: LogicalOp{Op: OpCount}},
	}, Output: "c"}

	out := Rewrite(plan)
	if len(plan.Nodes) != 7 {
		t.Error("Rewrite must not mutate its input")
	}
	if out.node("f1") != nil {
		t.Errorf("basicFilter should be pushed into its root: %s", out.String())
	}
	root := out.node("n1")
	if root == nil || len(root.Filters) != 1 {
		t.Errorf("pushed filter missing from root: %s", out.String())
	}
	extracts := 0
	for _, n := range out.Nodes {
		if n.Op == OpLLMExtract {
			extracts++
			if len(n.Fields) != 2 {
				t.Errorf("fused extract fields = %d", len(n.Fields))
			}
		}
	}
	if extracts != 1 {
		t.Errorf("extracts after fuse = %d: %s", extracts, out.String())
	}
	join := out.node("j")
	if join == nil || len(join.Inputs) != 2 || join.Inputs[0] != "n1" {
		t.Errorf("join edges not reconnected: %s", out.String())
	}
	if err := Validate(out, testSchema()); err != nil {
		t.Errorf("rewritten DAG should stay valid: %v", err)
	}
}

func TestRewriteDoesNotPushThroughSharedRoot(t *testing.T) {
	// A root feeding both a filtered branch and the join directly must
	// not absorb the branch's filter (it would change the other branch).
	plan := &LogicalPlan{Nodes: []PlanNode{
		{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		{ID: "f1", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpBasicFilter,
			Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}}},
		{ID: "j", Inputs: []string{"f1", "n1"}, LogicalOp: LogicalOp{Op: OpJoin,
			LeftKey: "accidentNumber", RightKey: "accidentNumber", JoinKind: "semi"}},
		{ID: "c", Inputs: []string{"j"}, LogicalOp: LogicalOp{Op: OpCount}},
	}, Output: "c"}
	out := Rewrite(plan)
	if out.node("f1") == nil {
		t.Errorf("filter must not be pushed into a shared root: %s", out.String())
	}
	if len(out.node("n1").Filters) != 0 {
		t.Errorf("shared root must stay unfiltered: %s", out.String())
	}
}

func TestDAGStringRendersNodesAndEdges(t *testing.T) {
	s := joinFixturePlan().String()
	for _, want := range []string{"n1.", "n3. join(inner, accidentNumber=accidentNumber) <- n1, n2", "[output]"} {
		if !strings.Contains(s, want) {
			t.Errorf("DAG rendering missing %q:\n%s", want, s)
		}
	}
	// A chain is rendered like any other DAG.
	chain := Chain(LogicalOp{Op: OpQueryDatabase}, LogicalOp{Op: OpCount})
	if got, want := chain.String(), "n1. queryDatabase(scan all)\nn2. count() <- n1 [output]"; got != want {
		t.Errorf("chain rendering = %q, want %q", got, want)
	}
}

func TestServiceRunPlanReportsAllErrorsOverDAG(t *testing.T) {
	ex, _ := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{Planner: NewPlanner(sim, testSchema()), Executor: ex}
	bad := joinFixturePlan()
	bad.node("n1").Filters = []FilterSpec{{Field: "nope", Kind: "fuzzy", Value: 1}}
	_, err := svc.RunPlan(context.Background(), "q", bad)
	if err == nil {
		t.Fatal("invalid DAG must be rejected")
	}
	if n := len(Issues(err)); n < 2 {
		t.Errorf("want both field and kind errors, got %d: %v", n, err)
	}
}

func TestInspectPlanDryRunsEdits(t *testing.T) {
	ex, _ := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{Planner: NewPlanner(sim, testSchema()), Executor: ex}
	preview, err := svc.InspectPlan(joinFixturePlan())
	if err != nil {
		t.Fatal(err)
	}
	if preview.Rewritten == nil || !strings.Contains(preview.Compiled, "join") {
		t.Errorf("preview incomplete: %+v", preview)
	}
}

func TestPlanOnlySkipsExecution(t *testing.T) {
	ex, store := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{Planner: NewPlanner(sim, InferSchema(store)), Executor: ex}
	preview, err := svc.PlanOnly(context.Background(), "How many incidents were there in Kentucky?")
	if err != nil {
		t.Fatal(err)
	}
	if preview.Plan == nil || preview.Rewritten == nil || preview.Compiled == "" {
		t.Fatalf("preview incomplete: %+v", preview)
	}
	if !strings.Contains(preview.Compiled, "queryDatabase") {
		t.Errorf("compiled rendering = %q", preview.Compiled)
	}
}

func TestDedupRespectsJoinBranches(t *testing.T) {
	q := "Does the document indicate birds?"
	mk := func(rightHasFilter, leftHasFilter bool) *LogicalPlan {
		nodes := []PlanNode{
			{ID: "l", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "r", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
		}
		leftIn, rightIn := "l", "r"
		if leftHasFilter {
			nodes = append(nodes, PlanNode{ID: "lf", Inputs: []string{"l"},
				LogicalOp: LogicalOp{Op: OpLLMFilter, Question: q}})
			leftIn = "lf"
		}
		if rightHasFilter {
			nodes = append(nodes, PlanNode{ID: "rf", Inputs: []string{"r"},
				LogicalOp: LogicalOp{Op: OpLLMFilter, Question: q}})
			rightIn = "rf"
		}
		nodes = append(nodes,
			PlanNode{ID: "j", Inputs: []string{leftIn, rightIn}, LogicalOp: LogicalOp{
				Op: OpJoin, LeftKey: "us_state", RightKey: "us_state", JoinKind: "semi"}},
			PlanNode{ID: "post", Inputs: []string{"j"}, LogicalOp: LogicalOp{Op: OpLLMFilter, Question: q}},
			PlanNode{ID: "c", Inputs: []string{"post"}, LogicalOp: LogicalOp{Op: OpCount}},
		)
		return &LogicalPlan{Nodes: nodes, Output: "c"}
	}

	// A duplicate on the right (build) branch filtered DIFFERENT
	// documents — the post-join filter must survive.
	out := Rewrite(mk(true, false))
	if out.node("post") == nil {
		t.Errorf("post-join filter wrongly deduped against build branch:\n%s", out.String())
	}
	// A duplicate on the left (probe) lineage already constrained every
	// document flowing out of the join — the post-join filter is
	// redundant and should be dropped.
	out2 := Rewrite(mk(false, true))
	if out2.node("post") != nil {
		t.Errorf("probe-lineage duplicate should be dropped:\n%s", out2.String())
	}
}

func TestIssuesUnwrapsPlannerWrapping(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{{Field: "hallucinated", Kind: "fuzzy", Value: 1}}},
		LogicalOp{Op: OpCount},
	)
	verr := Validate(plan, testSchema())
	wrapped := fmt.Errorf("luna: plan for %q failed validation: %w", "q", verr)
	issues := Issues(wrapped)
	if len(issues) != 2 {
		t.Fatalf("wrapped aggregate should flatten to 2 issues, got %d: %q", len(issues), issues)
	}
	for _, is := range issues {
		if strings.Contains(is, "failed validation") || strings.Contains(is, "luna: invalid plan") {
			t.Errorf("issue should be the bare node message: %q", is)
		}
	}
}

func TestRunPlanAppliesRewritesLikeDryRun(t *testing.T) {
	ex, store := executorFixture(t)
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	svc := &Service{Planner: NewPlanner(sim, InferSchema(store)), Executor: ex}
	// Two chained llmExtract nodes: the optimizer fuses them into one
	// LLM call per document.
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part", Type: "string"}}},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "phase", Type: "string"}}},
		LogicalOp{Op: OpCount},
	)
	preview, err := svc.InspectPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.RunPlan(context.Background(), "q", plan)
	if err != nil {
		t.Fatal(err)
	}
	// The dry-run's compiled pipeline is the pipeline execution ran.
	if res.Compiled != preview.Compiled {
		t.Errorf("execution pipeline diverged from dry-run:\nrun: %s\npreview: %s", res.Compiled, preview.Compiled)
	}
	if n := strings.Count(res.Compiled, "llmExtract"); n != 1 {
		t.Errorf("extracts should fuse on the execute-by-plan path, got %d stages:\n%s", n, res.Compiled)
	}
	if res.Plan != plan {
		t.Error("Result.Plan must echo the submitted plan")
	}
	if len(res.Rewritten.Nodes) >= len(plan.Nodes) {
		t.Errorf("Result.Rewritten should be the optimized plan (%d vs %d nodes)",
			len(res.Rewritten.Nodes), len(plan.Nodes))
	}
}
