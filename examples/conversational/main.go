// Conversational analytics: the §6.2 interaction pattern — ask a
// question, inspect the generated plan and execution trace, then refine
// with follow-ups ("what about …", "show only …") that implicitly reuse
// the previous query. This is the Figure 6 user experience as an API.
//
//	go run ./examples/conversational
package main

import (
	"context"
	"fmt"
	"log"

	"aryn/internal/core"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

func main() {
	ctx := context.Background()

	corpus, err := ntsb.GenerateCorpus(60, 5)
	if err != nil {
		log.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		log.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7})
	if _, err := sys.Ingest(ctx, blobs); err != nil {
		log.Fatal(err)
	}

	// Opening question.
	res, err := sys.Ask(ctx, "How many incidents involved substantial damage?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q1: %s\nA1: %s\n\n", res.Question, res.Answer.String())

	// Verifiability: the user inspects the plan...
	fmt.Println("generated plan (user-inspectable, §6.2):")
	fmt.Println(res.Rewritten.JSON())

	// ...and the per-operator lineage trace before trusting the answer.
	fmt.Println("\nexecution trace:")
	fmt.Print(res.Trace.String())

	// Follow-up 1: switch the damage level, keep the query shape.
	res2, err := sys.Ask(ctx, "what about destroyed aircraft?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ2 (follow-up): %s\nA2: %s\n", res2.Question, res2.Answer.String())
	// The planner saw the previous plan beside the follow-up and returned
	// the two merged.
	fmt.Println("merged plan:", res2.Rewritten.String())

	// Follow-up 2: narrow geographically, still keeping the terminal.
	res3, err := sys.Ask(ctx, "show only results in California")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ3 (follow-up): %s\nA3: %s\n", res3.Question, res3.Answer.String())
	fmt.Println("merged plan:", res3.Rewritten.String())

	// Power-user path: edit the plan DAG directly and re-run (the Figure
	// 6 "modify any part of the plan" affordance). The same JSON shape is
	// served over HTTP: POST /plan to inspect, edit, then POST /query
	// {"plan": ...} to re-execute.
	edited := res3.Rewritten.Clone()
	for i := range edited.Nodes {
		if edited.Nodes[i].Op == luna.OpQueryDatabase {
			edited.Nodes[i].Filters = nil // drop all filters
		}
	}
	res4, err := sys.Query.RunPlan(ctx, "(edited plan: no filters)", edited)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ4 (user-edited plan): %s -> %s\n", res4.Question, res4.Answer.String())

	// Joins make plans true DAGs: two scan roots feeding one join node
	// (the §9 "extend Aryn to support joins" direction as a logical
	// operator). Fatal incidents that happened in a state which also saw
	// substantially damaged aircraft.
	joinPlan := &luna.LogicalPlan{
		Nodes: []luna.PlanNode{
			{ID: "fatal", LogicalOp: luna.LogicalOp{Op: luna.OpQueryDatabase,
				Filters: []luna.FilterSpec{{Field: "fatalities", Kind: "gte", Value: 1}}}},
			{ID: "damaged", LogicalOp: luna.LogicalOp{Op: luna.OpQueryDatabase,
				Filters: []luna.FilterSpec{{Field: "aircraftDamage", Kind: "term", Value: "Substantial"}}}},
			{ID: "samestate", Inputs: []string{"fatal", "damaged"}, LogicalOp: luna.LogicalOp{
				Op: luna.OpJoin, LeftKey: "us_state", RightKey: "us_state", JoinKind: "semi"}},
			{ID: "total", Inputs: []string{"samestate"}, LogicalOp: luna.LogicalOp{Op: luna.OpCount}},
		},
		Output: "total",
	}
	res5, err := sys.Query.RunPlan(ctx, "(join plan: fatal incidents in states with substantial damage)", joinPlan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ5 (DAG join plan):\n%s\n-> %s\n", joinPlan.String(), res5.Answer.String())

	// EXPLAIN ANALYZE: the executed plan annotated with per-node runtime —
	// wall/busy time, docs in/out, LLM calls/tokens/cache hits. The two
	// scan roots are independent branches: the scheduler ran them
	// concurrently (their busy windows overlap), under one worker budget.
	// Over HTTP the same view is POST /plan {"plan": ..., "analyze": true}
	// or POST /query {"include_plan": true} (see docs/plan-api.md).
	fmt.Println("\nEXPLAIN ANALYZE (executed plan with per-node runtime):")
	fmt.Println(res5.Rewritten.AnnotatedJSON(res5.Exec))
}
