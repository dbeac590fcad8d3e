package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"aryn/internal/core"
	"aryn/internal/luna"
	"aryn/internal/server/api"
)

// TestPlanInspectEditReexecute walks the full §6.2 loop over HTTP:
// plan a question without executing, edit the returned DAG JSON, and
// submit the edited plan back through /query for a traced execution.
func TestPlanInspectEditReexecute(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})

	// 1. Inspect: POST /plan returns original + rewritten + compiled.
	var planned api.PlanResponse
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Question: "How many incidents were there?"}, &planned)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	if len(planned.Plan.Original) == 0 || len(planned.Plan.Rewritten) == 0 || planned.Plan.Compiled == "" {
		t.Fatalf("plan response incomplete: %+v", planned.Plan)
	}
	if !strings.Contains(string(planned.Plan.Rewritten), `"nodes"`) {
		t.Errorf("plan should be DAG JSON: %s", planned.Plan.Rewritten)
	}

	// 2. Edit: cap the scan with a limit node feeding the count.
	var plan luna.LogicalPlan
	if err := json.Unmarshal(planned.Plan.Rewritten, &plan); err != nil {
		t.Fatal(err)
	}
	count := -1
	for i := range plan.Nodes {
		if plan.Nodes[i].Op == luna.OpCount {
			count = i
		}
	}
	if count < 0 || len(plan.Nodes[count].Inputs) != 1 {
		t.Fatalf("rewritten plan has no count node: %s", planned.Plan.Rewritten)
	}
	plan.Nodes = append(plan.Nodes, luna.PlanNode{
		ID:        "edit1",
		Inputs:    []string{plan.Nodes[count].Inputs[0]},
		LogicalOp: luna.LogicalOp{Op: luna.OpLimit, K: 5},
	})
	plan.Nodes[count].Inputs = []string{"edit1"}
	edited, err := json.Marshal(&plan)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Re-execute: the edited plan runs and the limit bites.
	var out api.QueryResponse
	resp = postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Plan: edited, IncludePlan: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute-by-plan status = %d", resp.StatusCode)
	}
	if out.Answer != "5" {
		t.Errorf("edited plan answer = %q, want 5 (limit applied)", out.Answer)
	}
	if out.TraceID == "" {
		t.Error("executed plan should be traced")
	}
	if out.Plan == nil || !strings.Contains(string(out.Plan.Original), "edit1") {
		t.Errorf("include_plan should echo the submitted plan: %+v", out.Plan)
	}
}

// TestJoinPlanOverHTTP executes a two-root DAG with the join operator
// end-to-end against the ingested NTSB corpus: a self-equijoin on
// accident number keeps every document exactly once.
func TestJoinPlanOverHTTP(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	plan := []byte(`{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","op":"queryDatabase"},
		{"id":"n3","op":"join","inputs":["n1","n2"],"left_key":"accidentNumber","right_key":"accidentNumber","join_kind":"semi"},
		{"id":"n4","op":"count","inputs":["n3"]}],"output":"n4"}`)
	var out api.QueryResponse
	resp := postJSON(t, ts.URL+"/v1/query",
		api.QueryRequest{Question: "join smoke", Plan: plan, IncludePlan: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join plan status = %d", resp.StatusCode)
	}
	if out.Answer != "16" {
		t.Errorf("semi self-join count = %q, want 16", out.Answer)
	}
	if out.Plan == nil || !strings.Contains(out.Plan.Compiled, "join") {
		t.Errorf("compiled pipeline should include the join stage: %+v", out.Plan)
	}
}

func TestPlanDryRunValidatesEdits(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	plan := []byte(`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}`)
	var out api.PlanResponse
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Plan: plan}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan dry-run status = %d", resp.StatusCode)
	}
	if len(out.Plan.Rewritten) == 0 || out.Plan.Compiled == "" {
		t.Errorf("dry-run should rewrite and compile: %+v", out.Plan)
	}
}

// TestInvalidPlanReturnsStructuredErrors is the 400 structured-error
// regression: every node-level failure must surface in one response — the
// retired llmFilterCascade operator among them.
func TestInvalidPlanReturnsStructuredErrors(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	bad := []byte(`{"nodes":[
		{"id":"n1","op":"queryDatabase","filters":[{"field":"hallucinated","kind":"fuzzy","value":1}]},
		{"id":"n2","op":"llmFilter","inputs":["n1"]},
		{"id":"n4","op":"llmFilterCascade","inputs":["n2"],"question":"Does the report mention a fire?","low":0.05,"high":1},
		{"id":"n3","op":"count","inputs":["n4"]}],"output":"n3"}`)
	for _, path := range []string{"/query", "/plan"} {
		var errOut api.ErrorEnvelope
		resp := postJSON(t, ts.URL+"/v1"+path, map[string]any{"plan": json.RawMessage(bad)}, &errOut)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s invalid plan status = %d, want 400", path, resp.StatusCode)
		}
		if errOut.Error.Code != "invalid_plan" {
			t.Errorf("%s error code = %q, want invalid_plan", path, errOut.Error.Code)
		}
		if len(errOut.Error.Details) < 3 {
			t.Errorf("%s should list all validation failures, got %q", path, errOut.Error.Details)
		}
		joined := strings.Join(errOut.Error.Details, "\n")
		for _, want := range []string{"hallucinated", "filter kind", "llmFilter requires a question", `unknown operator "llmFilterCascade"`} {
			if !strings.Contains(joined, want) {
				t.Errorf("%s errors missing %q: %q", path, want, errOut.Error.Details)
			}
		}
	}
}

// The retired linear form {"ops": [...]} decodes to a plan with no nodes
// and is refused as a request error — 400 invalid_plan — on every route
// that takes a plan, and before the stream opens when SSE was asked for.
func TestLegacyLinearPlanOverHTTP(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	legacy := json.RawMessage(`{"ops":[{"op":"queryDatabase"},{"op":"count"}]}`)
	check := func(name string, resp *http.Response, env api.ErrorEnvelope) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != api.CodeInvalidPlan {
			t.Errorf("%s: status %d code %q, want 400 %s", name, resp.StatusCode, env.Error.Code, api.CodeInvalidPlan)
		}
	}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"query", "/v1/query", api.QueryRequest{Plan: legacy}},
		{"plan", "/v1/plan", api.PlanRequest{Plan: legacy}},
		{"analyze", "/v1/plan", api.PlanRequest{Plan: legacy, Analyze: true}},
	} {
		var env api.ErrorEnvelope
		check(tc.name, postJSON(t, ts.URL+tc.path, tc.body, &env), env)
	}

	resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query", api.QueryRequest{Plan: legacy})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("SSE request Content-Type = %q, want a plain JSON error (the stream must not open)", ct)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode SSE-request error body: %v", err)
	}
	check("query over SSE", resp, env)
}

func TestPlanEndpointValidation(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	if resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty plan request status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/plan", map[string]any{"plan": "not an object"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed plan status = %d, want 400", resp.StatusCode)
	}

	sys, err := buildSystem(core.Config{Seed: 3, Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := newTestServer(t, sys, Config{})
	if resp := postJSON(t, empty.URL+"/v1/plan", api.PlanRequest{Question: "anything?"}, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("plan before ingest status = %d, want 409", resp.StatusCode)
	}
}

// TestPlanEstimateIgnoresExecution: a plan's estimate is a function of the
// plan and the corpus size, so running the plan leaves the cost and
// cost_optimized /v1/plan prints for it byte-identical.
func TestPlanEstimateIgnoresExecution(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	plan := json.RawMessage(`{"nodes": [
		{"id": "n1", "op": "queryDatabase"},
		{"id": "n2", "op": "llmFilter", "inputs": ["n1"], "question": "Was the aircraft substantially damaged by a fire?"},
		{"id": "n3", "op": "llmExtract", "inputs": ["n2"], "fields": [{"name": "damaged_part", "type": "string"}]},
		{"id": "n4", "op": "count", "inputs": ["n3"]}], "output": "n4"}`)
	optimize := true
	estimate := func() (cost, costOptimized string) {
		t.Helper()
		var out struct {
			Plan struct {
				Cost          json.RawMessage `json:"cost"`
				CostOptimized json.RawMessage `json:"cost_optimized"`
			} `json:"plan"`
		}
		if resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Plan: plan, Optimize: &optimize}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status = %d", resp.StatusCode)
		}
		if len(out.Plan.Cost) == 0 || len(out.Plan.CostOptimized) == 0 {
			t.Fatalf("plan detail carries no estimate: cost %s, cost_optimized %s", out.Plan.Cost, out.Plan.CostOptimized)
		}
		return string(out.Plan.Cost), string(out.Plan.CostOptimized)
	}
	cost, costOptimized := estimate()
	if resp := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Plan: plan, Optimize: &optimize}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if c, co := estimate(); c != cost || co != costOptimized {
		t.Errorf("running the plan moved its estimate:\ncost           %s\n            -> %s\ncost_optimized %s\n            -> %s", cost, c, costOptimized, co)
	}
}
