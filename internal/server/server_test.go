package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
	"aryn/internal/server/api"
)

// sharedSystem ingests one small corpus per test binary; individual tests
// layer their own Server (sessions, gate) over it.
var (
	sharedOnce sync.Once
	sharedSys  *core.System
	sharedErr  error
)

func readySystem(t *testing.T) *core.System {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSys, sharedErr = buildSystem(core.Config{Seed: 7, Parallelism: 4}, 16)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedSys
}

// slowSystem carries simulated per-dispatch LLM latency so saturation
// tests get guaranteed request overlap.
var (
	slowOnce sync.Once
	slowSys  *core.System
	slowErr  error
)

func latencySystem(t *testing.T) *core.System {
	t.Helper()
	slowOnce.Do(func() {
		slowSys, slowErr = buildSystem(core.Config{
			Seed:        7,
			Parallelism: 4,
			LLMOptions:  []llm.SimOption{llm.WithLatency(10 * time.Millisecond)},
		}, 10)
	})
	if slowErr != nil {
		t.Fatal(slowErr)
	}
	return slowSys
}

// buildSystem wires a system and ingests docs synthetic accidents.
func buildSystem(cfg core.Config, docs int) (*core.System, error) {
	sys := core.New(cfg)
	if docs > 0 {
		corpus, err := ntsb.GenerateCorpus(docs, 42)
		if err != nil {
			return nil, err
		}
		blobs, err := corpus.Blobs()
		if err != nil {
			return nil, err
		}
		if _, err := sys.Ingest(context.Background(), blobs); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// newTestServer stands up a Server over sys behind an httptest listener.
func newTestServer(t *testing.T, sys *core.System, cfg Config) *httptest.Server {
	t.Helper()
	srv := New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// postJSON posts v and decodes the response body into out (if non-nil).
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func TestHealthzReportsReadiness(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var body map[string]any
	resp := getJSON(t, ts.URL+"/v1/healthz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if body["status"] != "ok" || body["ready"] != true {
		t.Errorf("healthz body = %+v", body)
	}
	if resp.Header.Get("X-Trace-Id") == "" || body["trace_id"] == "" {
		t.Error("healthz should carry a trace ID in header and body")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var out QueryResponse
	resp := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Question: "How many incidents were there?", IncludePlan: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if out.Answer == "" || out.Kind != string(luna.AnswerNumber) {
		t.Errorf("query answer = %q kind = %q", out.Answer, out.Kind)
	}
	if out.Plan == nil || !strings.Contains(string(out.Plan.Rewritten), luna.OpQueryDatabase) {
		t.Errorf("include_plan should attach the rewritten plan, got %+v", out.Plan)
	}
	if out.Plan != nil && (len(out.Plan.Original) == 0 || out.Plan.Compiled == "") {
		t.Errorf("include_plan should carry the original plan and the compiled pipeline, got %+v", out.Plan)
	}
	if out.TraceID == "" || out.TraceID != resp.Header.Get("X-Trace-Id") {
		t.Errorf("trace mismatch: body %q header %q", out.TraceID, resp.Header.Get("X-Trace-Id"))
	}
}

func TestQueryRAG(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var out QueryResponse
	resp := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Question: "How many incidents involved substantial damage?", RAG: true}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rag query status = %d", resp.StatusCode)
	}
	if out.Kind != "rag" || out.Answer == "" {
		t.Errorf("rag response = %+v", out)
	}
}

func TestQueryValidation(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var errOut errorResponse
	if resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{}, &errOut); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty question status = %d", resp.StatusCode)
	}
	if errOut.Error.Code != "bad_request" || errOut.Error.Message == "" || errOut.TraceID == "" {
		t.Errorf("error envelope should carry code + message + trace_id: %+v", errOut)
	}
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d, want 405", resp.StatusCode)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{MaxBodyBytes: 256})
	big := QueryRequest{Question: strings.Repeat("x", 1024)}
	resp := postJSON(t, ts.URL+"/v1/query", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

func TestQueryBeforeIngestConflicts(t *testing.T) {
	sys, err := buildSystem(core.Config{Seed: 3, Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{})
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Question: "anything?"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("query before ingest status = %d, want 409", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{Question: "anything?", RAG: true}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("RAG query before ingest status = %d, want 409", resp.StatusCode)
	}
}

func TestIngestGeneratedCorpusThenQuery(t *testing.T) {
	sys, err := buildSystem(core.Config{Seed: 3, Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{})

	var acc api.JobAccepted
	resp := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Docs: 6, Seed: 11}, &acc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	ing := waitJobState(t, ts.URL+acc.Location, api.JobDone, 30*time.Second).Result
	if ing == nil || ing.Documents != 6 || ing.Chunks == 0 || ing.Usage.Calls == 0 {
		t.Errorf("ingest result = %+v", ing)
	}

	var out QueryResponse
	if resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Question: "How many incidents were there?"}, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest query status = %d", resp.StatusCode)
	}
	if out.Answer != "6" {
		t.Errorf("count after 6-doc ingest = %q", out.Answer)
	}
}

func TestIngestValidation(t *testing.T) {
	sys, err := buildSystem(core.Config{Seed: 3, Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{MaxIngestDocs: 10})
	if resp := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingest status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Docs: 11}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap ingest status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/ingest", IngestRequest{Blobs: map[string]string{"x": "not-base64!"}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad base64 ingest status = %d, want 400", resp.StatusCode)
	}
}

func TestChatSessionFollowUp(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})

	var first ChatResponse
	resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{Question: "How many incidents involved substantial damage?"}, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chat status = %d", resp.StatusCode)
	}
	if first.SessionID == "" || first.Turn != 1 {
		t.Fatalf("first chat turn = %+v", first)
	}

	var second ChatResponse
	resp = postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{SessionID: first.SessionID, Question: "what about destroyed aircraft?"}, &second)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d", resp.StatusCode)
	}
	if second.SessionID != first.SessionID || second.Turn != 2 {
		t.Errorf("follow-up = %+v, want same session turn 2", second)
	}
	if second.Answer == first.Answer {
		t.Logf("note: follow-up answer equals first answer (%q)", second.Answer)
	}

	if resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{SessionID: "nope", Question: "hello?"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session status = %d, want 404", resp.StatusCode)
	}
}

func TestChatSessionEviction(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{SessionTTL: 150 * time.Millisecond})

	var first ChatResponse
	if resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{Question: "How many incidents were there?"}, &first); resp.StatusCode != http.StatusOK {
		t.Fatalf("chat status = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/chat",
			ChatRequest{SessionID: first.SessionID, Question: "How many incidents were there?"}, nil)
		if resp.StatusCode == http.StatusNotFound {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("session never evicted after TTL")
		}
		time.Sleep(200 * time.Millisecond)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Sessions.Evicted == 0 {
		t.Errorf("stats should count evictions: %+v", stats.Sessions)
	}
}

func TestFailedFirstChatDoesNotLeakSession(t *testing.T) {
	// A 1ns request deadline makes the first Ask fail after the session
	// was created; the client never learned the ID, so the slot must be
	// reclaimed immediately rather than leak until TTL eviction.
	ts := newTestServer(t, readySystem(t), Config{RequestTimeout: time.Nanosecond})
	// A question no other test asks, so the LLM cache cannot short-circuit
	// the deadline.
	resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{Question: "How many incidents were there in Wyoming?"}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline chat status = %d, want 504", resp.StatusCode)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Sessions.Live != 0 {
		t.Errorf("failed first chat leaked %d session(s)", stats.Sessions.Live)
	}
}

func TestSessionCapSheds(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{MaxSessions: 1})
	if resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{Question: "How many incidents were there?"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first session status = %d", resp.StatusCode)
	}
	resp := postJSON(t, ts.URL+"/v1/chat",
		ChatRequest{Question: "How many incidents were there?"}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cap session status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("session shed should carry Retry-After")
	}
}

func TestStatsSnapshot(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	postJSON(t, ts.URL+"/v1/query", QueryRequest{Question: "How many incidents were there?"}, nil)

	var stats StatsResponse
	resp := getJSON(t, ts.URL+"/v1/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if !stats.Ready || stats.Docs == 0 || stats.Chunks == 0 {
		t.Errorf("stats readiness = %+v", stats)
	}
	if stats.Requests < 2 || stats.Gate.Admitted == 0 {
		t.Errorf("stats counters = requests %d admitted %d", stats.Requests, stats.Gate.Admitted)
	}
	if stats.Usage.Calls == 0 {
		t.Errorf("stats should expose cumulative LLM usage: %+v", stats.Usage)
	}
}

func TestGateBoundsWaitersAndSheds(t *testing.T) {
	g := newGate(1, 2, 30*time.Millisecond)
	release, ok := g.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire should succeed")
	}

	// With the only slot held, every waiter times out and is shed; the
	// queue never exceeds maxWaiters.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rel, ok := g.acquire(context.Background()); ok {
				rel()
				t.Error("acquire should shed while the slot is held")
			}
		}()
	}
	wg.Wait()
	st := g.stats()
	if st.Shed != 8 {
		t.Errorf("shed = %d, want 8", st.Shed)
	}
	if st.WaitersHigh > 2 {
		t.Errorf("waiters high-water = %d, want ≤ 2", st.WaitersHigh)
	}

	release()
	release() // double release must be harmless
	if rel, ok := g.acquire(context.Background()); !ok {
		t.Error("acquire after release should succeed")
	} else {
		rel()
	}
	if got := g.stats().InFlight; got != 0 {
		t.Errorf("in-flight after drain = %d", got)
	}
}

func TestAdmission429OverHTTP(t *testing.T) {
	ts := newTestServer(t, latencySystem(t), Config{
		MaxInFlight: 1,
		MaxWaiters:  1,
		QueueWait:   20 * time.Millisecond,
	})

	const clients = 12
	statuses := make(chan int, clients)
	retryAfter := make(chan string, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Distinct questions defeat the LLM cache + singleflight so
			// each request does real work and holds its slot.
			body, _ := json.Marshal(QueryRequest{
				Question: fmt.Sprintf("How many incidents were there in year %d?", 2000+i),
			})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses <- resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retryAfter <- resp.Header.Get("Retry-After")
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(statuses)
	close(retryAfter)

	shed, served := 0, 0
	for code := range statuses {
		switch code {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			served++
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if served == 0 {
		t.Error("some requests should be served")
	}
	if shed == 0 {
		t.Error("a 12-client burst against 1 slot + 1 waiter should shed")
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Error("429 should carry Retry-After")
		}
	}
}
