package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aryn/internal/server/api"
)

// docs_replay_optimizer_test replays every HTTP example in
// docs/optimizer.md against a live handler, holding the page to what it
// promises: optimize:true plan responses carry the optimized DAG (with a
// scoped extract) and both cost estimates, and optimize:true executions
// answer with the optimized plan as the executed annotation.

func readOptimizerDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "optimizer.md"))
	if err != nil {
		t.Fatalf("read docs/optimizer.md: %v", err)
	}
	return string(data)
}

// TestOptimizerDocExamplesReplay runs the doc's curl examples (same
// format as docs/plan-api.md, matched by curlRE) and checks the
// responses carry the fields the surrounding prose promises.
func TestOptimizerDocExamplesReplay(t *testing.T) {
	doc := readOptimizerDoc(t)
	examples := curlRE.FindAllStringSubmatch(doc, -1)
	if len(examples) < 2 {
		t.Fatalf("found %d curl examples in docs/optimizer.md, expected at least 2 (plan, query)", len(examples))
	}
	ts := newTestServer(t, readySystem(t), Config{})

	for _, ex := range examples {
		path, payload := ex[1], ex[2]
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			var req struct {
				Optimize    *bool           `json:"optimize"`
				IncludePlan bool            `json:"include_plan"`
				Plan        json.RawMessage `json:"plan"`
			}
			if err := json.Unmarshal([]byte(payload), &req); err != nil {
				t.Fatalf("documented payload is not valid JSON: %v\n%s", err, payload)
			}
			if req.Optimize == nil || !*req.Optimize {
				t.Fatalf("optimizer doc example must set optimize:true:\n%s", payload)
			}
			resp, err := http.Post(ts.URL+"/v1"+path, "application/json", strings.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("documented example got status %d", resp.StatusCode)
			}
			var body struct {
				Answer string          `json:"answer"`
				Plan   *api.PlanDetail `json:"plan"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Plan == nil {
				t.Fatal("response carries no plan detail")
			}
			if len(body.Plan.Optimized) == 0 {
				t.Fatal("doc promises plan.optimized under optimize:true")
			}
			if !rawPlanHasScopedExtract(body.Plan.Optimized) {
				t.Errorf("doc promises the extract is scoped, optimized plan: %s", body.Plan.Optimized)
			}
			if body.Plan.Cost == nil || body.Plan.CostOptimized == nil {
				t.Fatalf("doc promises plan.cost and plan.cost_optimized: cost=%v cost_optimized=%v",
					body.Plan.Cost != nil, body.Plan.CostOptimized != nil)
			}
			if body.Plan.CostOptimized.LLMCalls > body.Plan.Cost.LLMCalls {
				t.Errorf("optimized estimate must not cost more LLM calls: %.1f > %.1f",
					body.Plan.CostOptimized.LLMCalls, body.Plan.Cost.LLMCalls)
			}
			switch path {
			case "/plan":
				if body.Plan.Executed != nil {
					t.Error("non-analyze /plan must not execute")
				}
			case "/query":
				if body.Answer == "" {
					t.Error("doc promises an answer on executed plans")
				}
				if len(body.Plan.Executed) == 0 {
					t.Fatal("doc promises plan.executed under include_plan")
				}
				// "executed is the optimized plan annotated with runtime
				// metrics": the scoped extract must appear in the annotation too.
				if !rawPlanHasScopedExtract(body.Plan.Executed) {
					t.Errorf("executed annotation is not the optimized plan: %s", body.Plan.Executed)
				}
			default:
				t.Fatalf("doc documents unknown endpoint %s", path)
			}
		})
	}
}

// rawPlanHasScopedExtract reports whether an encoded plan holds an
// llmExtract node scoped to a section ("sections": 1).
func rawPlanHasScopedExtract(plan json.RawMessage) bool {
	var p struct {
		Nodes []struct {
			Op       string `json:"op"`
			Sections int    `json:"sections"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(plan, &p); err != nil {
		return false
	}
	for _, n := range p.Nodes {
		if n.Op == "llmExtract" && n.Sections == 1 {
			return true
		}
	}
	return false
}
