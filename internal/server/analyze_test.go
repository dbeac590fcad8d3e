package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"aryn/internal/server/api"
)

// executedPlanShape is the EXPLAIN ANALYZE wire format both /plan
// {analyze:true} and /query {include_plan:true} return under "executed".
type executedPlanShape struct {
	Nodes []struct {
		ID      string `json:"id"`
		Op      string `json:"op"`
		Runtime *struct {
			DocsIn   int64   `json:"docs_in"`
			DocsOut  int64   `json:"docs_out"`
			LLMCalls int64   `json:"llm_calls"`
			BusyMS   float64 `json:"busy_ms"`
		} `json:"runtime"`
	} `json:"nodes"`
	Output string `json:"output"`
	Exec   *struct {
		WallMS   float64 `json:"wall_ms"`
		Budget   int     `json:"budget"`
		Branches int     `json:"branches"`
	} `json:"exec"`
}

// POST /plan {"analyze": true} executes the submitted plan and returns
// the annotated executed plan without the answer payload.
func TestPlanAnalyzeExecutesWithoutAnswer(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})

	plan := json.RawMessage(`{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}`)
	var out api.PlanResponse
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Plan: plan, Analyze: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	if len(out.Plan.Executed) == 0 {
		t.Fatal("analyze response carries no executed plan")
	}
	if len(out.Plan.Rewritten) == 0 || out.Plan.Compiled == "" {
		t.Errorf("analyze should still return rewritten + compiled: %+v", out.Plan)
	}

	var executed executedPlanShape
	if err := json.Unmarshal(out.Plan.Executed, &executed); err != nil {
		t.Fatal(err)
	}
	if executed.Output != "n2" || len(executed.Nodes) != 2 {
		t.Fatalf("executed plan shape: %s", out.Plan.Executed)
	}
	scan := executed.Nodes[0]
	if scan.Runtime == nil || scan.Runtime.DocsOut <= 0 {
		t.Errorf("scan node missing runtime: %s", out.Plan.Executed)
	}
	if executed.Exec == nil || executed.Exec.Budget <= 0 || executed.Exec.Branches < 1 {
		t.Errorf("exec summary missing: %s", out.Plan.Executed)
	}

	// No answer payload: api.PlanResponse has no answer field by shape; make
	// sure the raw body does not smuggle one in either.
	raw := struct {
		Answer *string `json:"answer"`
	}{}
	resp2 := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Plan: plan, Analyze: true}, &raw)
	if resp2.StatusCode != http.StatusOK || raw.Answer != nil {
		t.Errorf("analyze must not return an answer payload (got %v)", raw.Answer)
	}
}

// analyze with a question runs the planner and then executes.
func TestPlanAnalyzeQuestion(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var out api.PlanResponse
	resp := postJSON(t, ts.URL+"/v1/plan",
		api.PlanRequest{Question: "How many incidents were there?", Analyze: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}
	if len(out.Plan.Original) == 0 || len(out.Plan.Executed) == 0 {
		t.Fatalf("analyze(question) incomplete: %+v", out.Plan)
	}
}

// Invalid plans under analyze still come back 400 with the structured
// errors array.
func TestPlanAnalyzeInvalidPlan400(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	bad := json.RawMessage(`{"nodes":[
		{"id":"n1","op":"queryDatabase","filters":[{"field":"hallucinated","kind":"term","value":1}]}],
		"output":"n1"}`)
	var errOut api.ErrorEnvelope
	resp := postJSON(t, ts.URL+"/v1/plan", api.PlanRequest{Plan: bad, Analyze: true}, &errOut)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("analyze(bad plan) status = %d, want 400", resp.StatusCode)
	}
	if len(errOut.Error.Details) == 0 {
		t.Errorf("structured error details missing: %+v", errOut)
	}
}

// /query with include_plan now returns the executed plan alongside
// original/rewritten/compiled.
func TestQueryIncludePlanReturnsExecuted(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var out api.QueryResponse
	resp := postJSON(t, ts.URL+"/v1/query",
		api.QueryRequest{Question: "How many incidents were there?", IncludePlan: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if out.Plan == nil || len(out.Plan.Executed) == 0 {
		t.Fatalf("include_plan response missing executed: %+v", out.Plan)
	}
	var executed executedPlanShape
	if err := json.Unmarshal(out.Plan.Executed, &executed); err != nil {
		t.Fatal(err)
	}
	if len(executed.Nodes) == 0 || executed.Exec == nil {
		t.Errorf("executed plan incomplete: %s", out.Plan.Executed)
	}
	if out.Answer == "" {
		t.Error("query must still return the answer")
	}
}
