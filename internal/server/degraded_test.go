package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
	"aryn/internal/resilience"
	"aryn/internal/server/api"
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
var degradedSeq atomic.Int64

func degradedQuestion() string {
	return fmt.Sprintf("How many incidents were there in year %d?", 5_000_000+degradedSeq.Add(1))
}

// TestDegradedModeServing pins the serving-layer degradation contract: a
// total model outage yields 200s with retrieval-only answers flagged
// degraded — never a 500 — while /healthz and /stats report the state,
// and clearing the fault recovers within one probe interval.
func TestDegradedModeServing(t *testing.T) {
	url, _ := degradedHarness(t)

	// Script a total outage longer than the test could ever run.
	var fs api.FaultStateResponse
	resp := postJSON(t, url+"/v1/faults", api.FaultControlRequest{
		Spec: &fault.Spec{Seed: 11, Outages: []fault.Window{{StartMS: 0, EndMS: 600_000}}},
	}, &fs)
	if resp.StatusCode != http.StatusOK || !fs.Active {
		t.Fatalf("fault activation failed: %d %+v", resp.StatusCode, fs)
	}

	// Every query during the outage degrades; none may fail, and none may
	// leave a goroutine behind. Enough queries to walk the breaker past its
	// failure threshold.
	expectNoQueryGoroutines(t, func() {
		for i := 0; i < 7; i++ {
			var out api.QueryResponse
			resp := postJSON(t, url+"/v1/query", api.QueryRequest{Question: degradedQuestion()}, &out)
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
	})

	// The state is observable.
	var health map[string]any
	if resp := getJSON(t, url+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d; degraded must stay live", resp.StatusCode)
	}
	if health["status"] != "degraded" {
		t.Errorf("healthz status = %v, want degraded", health["status"])
	}
	var stats api.StatsResponse
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

	recoverFromFaults(t, url)
}

// TestDegradedChatTurn: a chat follow-up during a total outage is a 200
// degraded turn that keeps the session — the same retrieval-only answer
// /v1/query gives for the text, counted in degraded_served — and is left
// out of the history, so once the backend recovers the follow-up resolves
// against the last good turn exactly as in a fresh session.
func TestDegradedChatTurn(t *testing.T) {
	url, _ := degradedHarness(t)
	const first, followUp = "How many incidents involved substantial damage?", "what about destroyed aircraft?"

	var turn1 api.ChatResponse
	if resp := postJSON(t, url+"/v1/chat", api.ChatRequest{Question: first}, &turn1); resp.StatusCode != http.StatusOK || turn1.Turn != 1 {
		t.Fatalf("first turn: status %d, %+v", resp.StatusCode, turn1)
	}

	var fs api.FaultStateResponse
	postJSON(t, url+"/v1/faults", api.FaultControlRequest{
		Spec: &fault.Spec{Seed: 11, Outages: []fault.Window{{StartMS: 0, EndMS: 600_000}}},
	}, &fs)
	if !fs.Active {
		t.Fatalf("fault activation failed: %+v", fs)
	}

	var before, after api.StatsResponse
	getJSON(t, url+"/v1/stats", &before)
	var degraded api.ChatResponse
	resp := postJSON(t, url+"/v1/chat", api.ChatRequest{SessionID: turn1.SessionID, Question: followUp}, &degraded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up during outage: status %d, want 200 (degraded)", resp.StatusCode)
	}
	getJSON(t, url+"/v1/stats", &after)
	if !degraded.Degraded || degraded.Kind != "retrieval-only" || degraded.DegradedReason == "" {
		t.Errorf("follow-up during outage: degraded=%v kind=%q reason=%q", degraded.Degraded, degraded.Kind, degraded.DegradedReason)
	}
	if degraded.SessionID != turn1.SessionID || degraded.Turn != 1 {
		t.Errorf("degraded turn: session %q turn %d, want %q turn 1", degraded.SessionID, degraded.Turn, turn1.SessionID)
	}
	if got := after.DegradedServed - before.DegradedServed; got != 1 {
		t.Errorf("degraded_served moved by %d across one degraded chat turn, want 1", got)
	}
	var query api.QueryResponse
	postJSON(t, url+"/v1/query", api.QueryRequest{Question: followUp}, &query)
	if !query.Degraded || degraded.Answer != query.Answer {
		t.Errorf("degraded chat answer differs from /v1/query's (degraded %v):\n chat: %q\nquery: %q",
			query.Degraded, degraded.Answer, query.Answer)
	}

	recoverFromFaults(t, url)
	var recovered, fresh1, fresh2 api.ChatResponse
	postJSON(t, url+"/v1/chat", api.ChatRequest{SessionID: turn1.SessionID, Question: followUp}, &recovered)
	if recovered.Degraded || recovered.Turn != 2 {
		t.Errorf("follow-up after recovery: degraded=%v turn %d, want turn 2", recovered.Degraded, recovered.Turn)
	}
	postJSON(t, url+"/v1/chat", api.ChatRequest{Question: first}, &fresh1)
	postJSON(t, url+"/v1/chat", api.ChatRequest{SessionID: fresh1.SessionID, Question: followUp}, &fresh2)
	if fresh2.Turn != 2 || recovered.Answer != fresh2.Answer || recovered.Kind != fresh2.Kind {
		t.Errorf("follow-up after recovery = %q (%s), a fresh session's = %q (%s, turn %d)",
			recovered.Answer, recovered.Kind, fresh2.Answer, fresh2.Kind, fresh2.Turn)
	}
}

// recoverFromFaults clears the injector and holds the server to the
// recovery half of the contract: probe traffic closes the breaker within
// about one probe interval (plus slack), after which queries serve
// undegraded and /healthz is back to ok.
func recoverFromFaults(t *testing.T, url string) {
	t.Helper()
	var fs api.FaultStateResponse
	postJSON(t, url+"/v1/faults", api.FaultControlRequest{Clear: true}, &fs)
	if fs.Active {
		t.Fatalf("injector still active after clear: %+v", fs)
	}
	probe := 150 * time.Millisecond
	deadline := time.Now().Add(2*probe + 10*time.Second)
	for {
		var out api.QueryResponse
		resp := postJSON(t, url+"/v1/query", api.QueryRequest{Question: degradedQuestion()}, &out)
		if resp.StatusCode == http.StatusOK && !out.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still degraded %s after the fault cleared (status %d)", 2*probe+10*time.Second, resp.StatusCode)
		}
		time.Sleep(probe / 4)
	}
	var health map[string]any
	getJSON(t, url+"/v1/healthz", &health)
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v after recovery, want ok", health["status"])
	}
}

// TestFaultContracts scripts one fault per case through /v1/faults while
// several goroutines keep asking fresh questions — under -race, fault
// scripting against concurrent traffic — and every one of those queries
// must answer 200 with an answer. Each case then checks its own contract,
// leaves no query, pipeline or index goroutine behind, and the server
// recovers once the fault clears.
func TestFaultContracts(t *testing.T) {
	setFaults := func(t *testing.T, url string, spec fault.Spec) {
		if resp := postJSON(t, url+"/v1/faults", api.FaultControlRequest{Spec: &spec}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("fault activation status = %d", resp.StatusCode)
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, url string)
	}{
		// A backend failing a third of its calls is absorbed by retries.
		{"flaky backend", func(t *testing.T, url string) {
			setFaults(t, url, fault.Spec{Seed: 13, ErrorRate: 0.35, RetryAfterMS: 5, LatencyMS: 10, LatencyRate: 0.2})
			deadline := time.Now().Add(10 * time.Second)
			for {
				var stats api.StatsResponse
				getJSON(t, url+"/v1/stats", &stats)
				if stats.Resilience != nil && stats.Resilience.Retries > 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("no middleware retries at a 35%% injected error rate: %+v", stats.Resilience)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}},
		// Losing the LLM cache is a latency event, not a correctness event.
		{"cache purge", func(t *testing.T, url string) {
			q := degradedQuestion()
			var first, second api.QueryResponse
			postJSON(t, url+"/v1/query", api.QueryRequest{Question: q}, &first)
			var fs api.FaultStateResponse
			postJSON(t, url+"/v1/faults", api.FaultControlRequest{PurgeLLMCache: true}, &fs)
			if fs.PurgedCacheEntries == 0 {
				t.Error("purge_llm_cache after uncached queries dropped 0 entries")
			}
			postJSON(t, url+"/v1/query", api.QueryRequest{Question: q}, &second)
			if first.Degraded || second.Degraded || first.Answer != second.Answer {
				t.Errorf("answer across a cache purge: %q (degraded %v) → %q (degraded %v)",
					first.Answer, first.Degraded, second.Answer, second.Degraded)
			}
		}},
		// Stage faults end an ingest job done, or failed as unavailable.
		{"ingest under stage faults", func(t *testing.T, url string) {
			setFaults(t, url, fault.Spec{Seed: 17, OpErrorRate: 0.25, OpLatencyMS: 2})
			var acc api.JobAccepted
			if resp := postJSON(t, url+"/v1/ingest", api.IngestRequest{Docs: 3, Seed: 50_001}, &acc); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest status = %d", resp.StatusCode)
			}
			resp := sseOpen(t, context.Background(), "GET", url+acc.Location, nil)
			defer resp.Body.Close()
			events := readSSE(t, resp.Body)
			var job api.JobResponse
			decodeEvent(t, events[len(events)-1], &job)
			if job.State != api.JobDone && (job.State != api.JobFailed || job.Error.Code != api.CodeUnavailable) {
				t.Errorf("ingest under stage faults ended %s (%+v), want done or failed unavailable", job.State, job.Error)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, _ := degradedHarness(t)
			getJSON(t, url+"/v1/stats", &api.StatsResponse{}) // warm the client and the listener
			expectNoQueryGoroutines(t, func() {
				defer queryBeside(t, url, 3)() // stopped before the server closes, even on a failed case
				tc.run(t, url)
			})
			recoverFromFaults(t, url)
		})
	}
}

// queryBeside keeps n goroutines asking fresh questions, each at least
// once, until the returned stop is called; stop waits for them. Every
// reply must be a 200 with an answer, degraded or not.
func queryBeside(t *testing.T, url string, n int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				body, _ := json.Marshal(api.QueryRequest{Question: degradedQuestion()})
				resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out api.QueryResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil || out.Answer == "" {
					t.Errorf("query beside faults: status %d, answer %q (%v)", resp.StatusCode, out.Answer, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
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
	var out api.ErrorEnvelope
	resp := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Question: "How many incidents were there in year 6000001?"}, &out)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 when the request budget fires", resp.StatusCode)
	}
	if out.Error.Code != "timeout" || out.Error.Message == "" || out.TraceID == "" {
		t.Errorf("timeout error envelope incomplete: %+v", out)
	}
}
