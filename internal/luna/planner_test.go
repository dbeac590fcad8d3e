package luna

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aryn/internal/llm"
)

// memoQuestions are two questions the planner skill plans differently.
var memoQuestions = [2]string{
	"How many incidents were there in Alaska?",
	"What are the top three most commonly damaged parts in Cessna incidents?",
}

// memoFollowUp follows up on either of memoQuestions.
const memoFollowUp = "what about destroyed aircraft?"

// plannerOverOneEntryCache is a planner whose response cache holds one
// answer, so asking a second question evicts the first one's plan there.
func plannerOverOneEntryCache() (*Planner, *llm.Stack) {
	sim := llm.NewSim(1)
	sim.Register(PlannerSkill{})
	stack := llm.NewStack(sim, llm.WithCacheCapacity(1))
	return NewPlanner(stack, testSchema()), stack
}

func dispatches(s *llm.Stack) int64 { return s.StackStats().Batch.Batches }

// TestPlannerKeepsValidatedPlans: a question asked again after the
// response cache evicted its plan is answered from the planner's memo —
// no dispatch, the same plan byte for byte — and so is a follow-up asked
// again after the same previous plan; a follow-up after a different
// previous plan, or a changed schema, is a different planning request, so
// it is planned afresh.
func TestPlannerKeepsValidatedPlans(t *testing.T) {
	p, stack := plannerOverOneEntryCache()
	ctx := context.Background()
	var plans []*LogicalPlan
	for _, ask := range []struct {
		question string
		after    int // the index in plans of the plan it follows up on; -1: none
	}{
		{memoQuestions[0], -1}, {memoQuestions[1], -1}, {memoQuestions[0], -1},
		{memoFollowUp, 0}, {memoFollowUp, 1}, {memoFollowUp, 0},
	} {
		var prev *LogicalPlan
		if ask.after >= 0 {
			prev = plans[ask.after]
		}
		plan, err := p.Plan(ctx, ask.question, prev)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
		if len(plans) == 3 {
			if n := dispatches(stack); n != 2 {
				t.Errorf("Q1, Q2, Q1 made %d planning dispatches, want 2", n)
			}
		}
	}
	if n := dispatches(stack); n != 4 {
		t.Errorf("a follow-up after Q1, after Q2, after Q1 again made %d planning dispatches, want 2", n-2)
	}
	for _, same := range [][2]int{{0, 2}, {3, 5}} {
		if a, b := plans[same[0]].JSON(), plans[same[1]].JSON(); a != b {
			t.Errorf("asks %d and %d planned differently:\n%s\n%s", same[0], same[1], a, b)
		}
	}
	if plans[3].JSON() == plans[4].JSON() {
		t.Errorf("the follow-up planned the same after Q1 and after Q2:\n%s", plans[3].JSON())
	}

	// The memo hands out copies: editing one changes no later answer.
	edited, err := p.Plan(ctx, memoQuestions[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	edited.Nodes[0].Op = OpCount
	again, err := p.Plan(ctx, memoQuestions[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.JSON() != plans[0].JSON() {
		t.Errorf("an edited copy leaked into the memo:\n%s", again.JSON())
	}

	p.Schema.Fields = p.Schema.Fields[1:]
	if _, err := p.Plan(ctx, memoQuestions[0], nil); err != nil {
		t.Fatal(err)
	}
	if n := dispatches(stack); n != 5 {
		t.Errorf("a changed schema made %d dispatches in all, want 5 (planned afresh)", n)
	}
}

// TestPlannerForget: after Forget (the purge_llm_cache hook) the next ask
// of a question, and of a follow-up, goes to the model again.
func TestPlannerForget(t *testing.T) {
	p, stack := plannerOverOneEntryCache()
	ctx := context.Background()
	prev, err := p.Plan(ctx, memoQuestions[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(ctx, memoQuestions[1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(ctx, memoFollowUp, prev); err != nil {
		t.Fatal(err)
	}
	p.Forget()
	if _, err := p.Plan(ctx, memoQuestions[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(ctx, memoFollowUp, prev); err != nil {
		t.Fatal(err)
	}
	if n := dispatches(stack); n != 5 {
		t.Errorf("a question and a follow-up asked after Forget left %d dispatches in all, want 5", n)
	}
}

// TestPlannerKeepsOnlyValidPlans: a question, or a follow-up, whose plan
// failed validation is asked again, and a plan the repair loop fixed is
// kept.
func TestPlannerKeepsOnlyValidPlans(t *testing.T) {
	const bad = `{"nodes":[{"id":"n1","op":"teleport"}]}`
	const good = `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"count"}],"output":"n2"}`
	ctx := context.Background()
	prevPlan, err := ParsePlan(good)
	if err != nil {
		t.Fatal(err)
	}

	for _, prev := range []*LogicalPlan{nil, prevPlan} {
		failing := &llm.Scripted{Responses: []llm.Response{{Text: bad}, {Text: bad}, {Text: good}}}
		p := NewPlanner(failing, testSchema())
		if _, err := p.Plan(ctx, "q", prev); err == nil {
			t.Fatal("two invalid plans should fail")
		}
		if _, err := p.Plan(ctx, "q", prev); err != nil {
			t.Fatalf("the re-ask after a failure: %v", err)
		}
		if failing.Calls() != 3 {
			t.Errorf("follow-up %t: a failed question was not asked again: %d calls, want 3", prev != nil, failing.Calls())
		}
		if got := strings.Contains(failing.Requests[0].Prompt, previousPlanHeader); got != (prev != nil) {
			t.Errorf("follow-up %t: the planning prompt carries a previous plan: %t", prev != nil, got)
		}
		if _, block, ok := strings.Cut(failing.Requests[0].Prompt, previousPlanHeader); ok && block != good+"\n" {
			t.Errorf("the previous plan is sent as %q, want its compact JSON %q", block, good)
		}

		repaired := &llm.Scripted{Responses: []llm.Response{{Text: bad}, {Text: good}}}
		p = NewPlanner(repaired, testSchema())
		for range 2 {
			if _, err := p.Plan(ctx, "q", prev); err != nil {
				t.Fatal(err)
			}
		}
		if repaired.Calls() != 2 {
			t.Errorf("follow-up %t: a repaired plan was not kept: %d calls, want 2", prev != nil, repaired.Calls())
		}
	}
}

// TestPlannerMemoBounded: the memo never holds more than planMemoSize
// plans; a full memo starts over.
func TestPlannerMemoBounded(t *testing.T) {
	scripted := &llm.Scripted{Responses: []llm.Response{{Text: `{"nodes":[{"id":"n1","op":"queryDatabase"}]}`}}}
	p := NewPlanner(scripted, testSchema())
	ctx := context.Background()
	ask := func(i int) {
		t.Helper()
		if _, err := p.Plan(ctx, fmt.Sprintf("question %d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range planMemoSize {
		ask(i)
	}
	ask(0)
	if len(p.memo) != planMemoSize || scripted.Calls() != planMemoSize {
		t.Fatalf("a full memo holds %d plans after %d calls, want %d and %d",
			len(p.memo), scripted.Calls(), planMemoSize, planMemoSize)
	}
	ask(planMemoSize)
	if len(p.memo) != 1 {
		t.Errorf("past the bound the memo holds %d plans, want 1", len(p.memo))
	}
	ask(0)
	if scripted.Calls() != planMemoSize+2 {
		t.Errorf("%d calls, want %d: a plan dropped when the memo started over was not asked again",
			scripted.Calls(), planMemoSize+2)
	}
}

// TestPlannerConcurrentAsks: concurrent asks of one question, beside
// Forget, all get the same plan (run under -race).
func TestPlannerConcurrentAsks(t *testing.T) {
	p, _ := plannerOverOneEntryCache()
	ctx := context.Background()
	want, err := p.Plan(ctx, memoQuestions[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Forget()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 3 {
				p.Forget()
			}
			plan, err := p.Plan(ctx, memoQuestions[1], nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = plan.JSON()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want.JSON() {
			t.Errorf("ask %d planned\n%s\nwant\n%s", i, g, want.JSON())
		}
	}
}

// BenchmarkPlanRepeat re-asks two questions in turn over a one-entry
// response cache, so each ask finds its plan evicted there: without the
// planner's memo every ask is a planning dispatch. It reports the
// dispatches per ask beside ns/op.
func BenchmarkPlanRepeat(b *testing.B) {
	p, stack := plannerOverOneEntryCache()
	ctx := context.Background()
	for _, q := range memoQuestions {
		if _, err := p.Plan(ctx, q, nil); err != nil {
			b.Fatal(err)
		}
	}
	before := dispatches(stack)
	b.ResetTimer()
	for i := range b.N {
		if _, err := p.Plan(ctx, memoQuestions[i%2], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dispatches(stack)-before)/float64(b.N), "dispatches/op")
}
