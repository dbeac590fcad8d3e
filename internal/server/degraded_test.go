package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
	"aryn/internal/resilience"
)

// degradedHarness builds a small system with the resilience stack and a
// controllable injector, served behind the dev-only /faults endpoint.
func degradedHarness(t *testing.T) (ts string, inj *fault.Injector) {
	t.Helper()
	inj = fault.New(fault.Spec{})
	sys, err := buildSystem(core.Config{
		Seed:        7,
		Parallelism: 4,
		Fault:       inj,
		Resilience: &resilience.Options{
			Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1},
			Breaker: resilience.BreakerConfig{ProbeInterval: 150 * time.Millisecond},
		},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, sys, Config{Fault: inj})
	t.Cleanup(func() { inj.Clear() })
	return srv.URL, inj
}

// uniqueQuestions defeat the LLM cache so every query actually exercises
// the (possibly broken) backend. The 5M+ year range is disjoint from
// every other suite's question space.
var degradedSeq int

func degradedQuestion() string {
	degradedSeq++
	return fmt.Sprintf("How many incidents were there in year %d?", 5_000_000+degradedSeq)
}

// TestDegradedModeServing pins the serving-layer degradation contract: a
// total model outage yields 200s with retrieval-only answers flagged
// degraded — never a 500 — while /healthz and /stats report the state,
// and clearing the fault recovers within one probe interval.
func TestDegradedModeServing(t *testing.T) {
	url, _ := degradedHarness(t)

	// Script a total outage longer than the test could ever run.
	var fs FaultStateResponse
	resp := postJSON(t, url+"/v1/faults", FaultControlRequest{
		Spec: &fault.Spec{Seed: 11, Outages: []fault.Window{{StartMS: 0, EndMS: 600_000}}},
	}, &fs)
	if resp.StatusCode != http.StatusOK || !fs.Active {
		t.Fatalf("fault activation failed: %d %+v", resp.StatusCode, fs)
	}

	// Every query during the outage degrades; none may fail. Enough
	// queries to walk the breaker past its failure threshold.
	for i := 0; i < 7; i++ {
		var out QueryResponse
		resp := postJSON(t, url+"/v1/query", QueryRequest{Question: degradedQuestion()}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d during outage: status %d, want 200 (degraded)", i, resp.StatusCode)
		}
		if !out.Degraded || out.Kind != "retrieval-only" {
			t.Fatalf("query %d during outage: degraded=%v kind=%q", i, out.Degraded, out.Kind)
		}
		if out.Answer == "" || out.DegradedReason == "" {
			t.Fatalf("query %d: degraded response missing answer (%q) or reason (%q)", i, out.Answer, out.DegradedReason)
		}
	}

	// The state is observable.
	var health map[string]any
	if resp := getJSON(t, url+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d; degraded must stay live", resp.StatusCode)
	}
	if health["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded", health["status"])
	}
	var stats StatsResponse
	getJSON(t, url+"/v1/stats", &stats)
	if !stats.Degraded || stats.DegradedServed < 7 {
		t.Errorf("stats degraded=%v served=%d, want degraded with ≥7 served", stats.Degraded, stats.DegradedServed)
	}
	if stats.Resilience == nil || stats.Resilience.Breaker.State == "closed" {
		t.Errorf("breaker did not open across a sustained outage: %+v", stats.Resilience)
	}
	if q := stats.Endpoints["/query"]; q.ServerErrors != 0 {
		t.Errorf("/query produced %d server errors during the outage; the contract is zero 500s", q.ServerErrors)
	}

	// Clearing the fault recovers within a probe interval (plus slack).
	postJSON(t, url+"/v1/faults", FaultControlRequest{Clear: true}, &fs)
	if fs.Active {
		t.Fatalf("injector still active after clear: %+v", fs)
	}
	probe := 150 * time.Millisecond
	deadline := time.Now().Add(2*probe + 10*time.Second)
	for {
		var out QueryResponse
		resp := postJSON(t, url+"/v1/query", QueryRequest{Question: degradedQuestion()}, &out)
		if resp.StatusCode == http.StatusOK && !out.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still degraded %s after the fault cleared (status %d)", 2*probe+10*time.Second, resp.StatusCode)
		}
		time.Sleep(probe / 4)
	}
	getJSON(t, url+"/v1/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v after recovery, want ok", health["status"])
	}
}

// TestFaultsEndpointAbsentByDefault: without a wired injector the chaos
// surface does not exist.
func TestFaultsEndpointAbsentByDefault(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	resp, err := http.Get(ts.URL + "/v1/faults")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/faults on a production server = %d, want 404", resp.StatusCode)
	}
}

// TestQueryTimeoutBudget: a tight RequestTimeout turns a wedged query
// into a 504, not a hang.
func TestQueryTimeoutBudget(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{RequestTimeout: time.Nanosecond})
	var out errorResponse
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Question: "How many incidents were there in year 6000001?"}, &out)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 when the request budget fires", resp.StatusCode)
	}
	if out.Error.Code != "timeout" || out.Error.Message == "" || out.TraceID == "" {
		t.Errorf("timeout error envelope incomplete: %+v", out)
	}
}
