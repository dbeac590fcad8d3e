package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/server/api"
)

// ---- SSE test client ----

type sseEvent struct {
	id   int
	name string
	data json.RawMessage
}

// sseOpen issues a request with Accept: text/event-stream and returns the
// live response; the caller reads (and closes) the streaming body.
func sseOpen(t *testing.T, ctx context.Context, method, url string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readSSE consumes the stream to EOF (the server closes it after the
// terminal event) and returns every event in arrival order.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE stream: %v", err)
	}
	return events
}

func decodeEvent(t *testing.T, ev sseEvent, out any) {
	t.Helper()
	if err := json.Unmarshal(ev.data, out); err != nil {
		t.Fatalf("decode %s event %s: %v", ev.name, ev.data, err)
	}
}

// verySlowSystem carries enough simulated LLM latency that streaming
// tests can observe heartbeats and cancel mid-execution. Batching is
// disabled so per-call latency compounds predictably.
var (
	verySlowOnce sync.Once
	verySlowSys  *core.System
	verySlowErr  error
)

func verySlowSystem(t *testing.T) *core.System {
	t.Helper()
	verySlowOnce.Do(func() {
		verySlowSys, verySlowErr = buildSystem(core.Config{
			Seed:        7,
			Parallelism: 4,
			LLMMaxBatch: 1,
			LLMOptions:  []llm.SimOption{llm.WithLatency(50 * time.Millisecond)},
		}, 16)
	})
	if verySlowErr != nil {
		t.Fatal(verySlowErr)
	}
	return verySlowSys
}

// filterPlan builds a scan → llmFilter → count plan; distinct questions
// defeat the LLM cache so each test pays real (simulated) latency.
func filterPlan(question string) json.RawMessage {
	return json.RawMessage(`{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","op":"llmFilter","question":"` + question + `","inputs":["n1"]},
		{"id":"n3","op":"count","inputs":["n2"]}],"output":"n3"}`)
}

// TestQueryStreamContract pins the SSE event grammar on POST /v1/query:
// progress/partial/heartbeat events, then (optionally) one trace event,
// then exactly one terminal result — nothing after it — with strictly
// increasing ids, and partial counts summing to the result's docs.
func TestQueryStreamContract(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{StreamProgress: 5 * time.Millisecond})
	resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query",
		QueryRequest{Question: "How many incidents were there?"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	last := events[len(events)-1]
	if last.name != api.EventResult {
		t.Fatalf("terminal event = %q, want result (events: %v)", last.name, eventNames(events))
	}
	var res QueryResponse
	decodeEvent(t, last, &res)
	if res.Answer != "16" || res.TraceID == "" {
		t.Errorf("streamed result = %q (trace %q), want answer 16 with a trace id", res.Answer, res.TraceID)
	}

	prevID := 0
	partialDocs, progressSeen, traceSeen := 0, false, false
	for _, ev := range events {
		if ev.id <= prevID {
			t.Errorf("event ids must increase: %d after %d", ev.id, prevID)
		}
		prevID = ev.id
		switch ev.name {
		case api.EventPartial:
			var p api.PartialEvent
			decodeEvent(t, ev, &p)
			if p.Count <= 0 || p.Seq <= 0 {
				t.Errorf("partial event missing seq/count: %+v", p)
			}
			partialDocs += p.Count
		case api.EventProgress:
			progressSeen = true
		case api.EventTrace:
			traceSeen = true
			var tr api.TraceEvent
			decodeEvent(t, ev, &tr)
			if !strings.Contains(string(tr.Executed), "first_out_ms") {
				t.Errorf("trace event lacks first_out_ms runtime: %s", tr.Executed)
			}
		case api.EventHeartbeat, api.EventResult:
		default:
			t.Errorf("unexpected event %q", ev.name)
		}
	}
	if !progressSeen {
		t.Error("every stream must carry at least one progress event")
	}
	if !traceSeen {
		t.Error("an executed query stream must carry the trace event")
	}
	if partialDocs != res.Docs {
		t.Errorf("partial docs sum = %d, want the terminal result's %d", partialDocs, res.Docs)
	}
}

func eventNames(events []sseEvent) []string {
	names := make([]string, len(events))
	for i, ev := range events {
		names[i] = ev.name
	}
	return names
}

// TestQueryStreamMatchesBatch: the same plan streamed and not streamed
// yields identical final answers and doc counts, and the same execution
// shape — pipelines scheduled, worker budget, executed plan nodes — since
// both run the one executor path. The second case is the optimize phase's
// scoped llmExtract (preamble and one section first, the whole document for
// what that leaves null).
func TestQueryStreamMatchesBatch(t *testing.T) {
	optimize := true
	for name, req := range map[string]QueryRequest{
		"filter": {Plan: filterPlan("Does the document indicate engine problems?"), IncludePlan: true},
		"scoped extract": {Plan: json.RawMessage(`{"nodes":[
			{"id":"n1","op":"queryDatabase"},
			{"id":"n2","op":"llmExtract","fields":[{"name":"damaged_part","type":"string"}],"inputs":["n1"]},
			{"id":"n3","op":"groupByAggregate","key":"damaged_part","agg":"count","inputs":["n2"]},
			{"id":"n4","op":"topK","field":"value","k":3,"inputs":["n3"]}],"output":"n4"}`),
			IncludePlan: true, Optimize: &optimize},
	} {
		t.Run(name, func(t *testing.T) { streamMatchesBatch(t, req) })
	}
}

func streamMatchesBatch(t *testing.T, req QueryRequest) {
	ts := newTestServer(t, readySystem(t), Config{})

	var batch QueryResponse
	if resp := postJSON(t, ts.URL+"/v1/query", req, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch query status = %d", resp.StatusCode)
	}

	resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query", req)
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	last := events[len(events)-1]
	if last.name != api.EventResult {
		t.Fatalf("terminal event = %q, want result", last.name)
	}
	var streamed QueryResponse
	decodeEvent(t, last, &streamed)
	if streamed.Answer != batch.Answer || streamed.Docs != batch.Docs {
		t.Errorf("streamed (answer %q, docs %d) != batch (answer %q, docs %d)",
			streamed.Answer, streamed.Docs, batch.Answer, batch.Docs)
	}
	be, se := executedShape(t, batch), executedShape(t, streamed)
	if be != se {
		t.Errorf("executed plan shape differs:\nbatch  %+v\nstream %+v", be, se)
	}
	// One output pipeline, no branches: every progress snapshot counts it
	// and nothing else.
	for _, ev := range events {
		if ev.name != api.EventProgress {
			continue
		}
		var p api.ProgressEvent
		decodeEvent(t, ev, &p)
		if p.Pipelines > be.branches {
			t.Errorf("progress reports %d pipelines, the executed plan scheduled %d", p.Pipelines, be.branches)
		}
	}
}

// execShape is what must not depend on whether a query was streamed.
type execShape struct {
	branches, budget int
	nodeIDs          string
}

// executedShape reads the EXPLAIN ANALYZE summary off a response's
// executed plan: the runtime-carrying node IDs plus the exec block.
func executedShape(t *testing.T, resp QueryResponse) execShape {
	t.Helper()
	if resp.Plan == nil || len(resp.Plan.Executed) == 0 {
		t.Fatalf("response carries no executed plan: %+v", resp.Plan)
	}
	var executed struct {
		Nodes []struct {
			ID      string          `json:"id"`
			Runtime json.RawMessage `json:"runtime"`
		} `json:"nodes"`
		Exec struct {
			Budget   int `json:"budget"`
			Branches int `json:"branches"`
		} `json:"exec"`
	}
	if err := json.Unmarshal(resp.Plan.Executed, &executed); err != nil {
		t.Fatalf("decode executed plan: %v\n%s", err, resp.Plan.Executed)
	}
	var ids []string
	for _, n := range executed.Nodes {
		if len(n.Runtime) > 0 {
			ids = append(ids, n.ID)
		}
	}
	return execShape{branches: executed.Exec.Branches, budget: executed.Exec.Budget, nodeIDs: strings.Join(ids, ",")}
}

// TestQueryStreamHeartbeat: a short heartbeat cadence on a slow query
// produces multiple heartbeats before the terminal result.
func TestQueryStreamHeartbeat(t *testing.T) {
	ts := newTestServer(t, verySlowSystem(t), Config{
		StreamHeartbeat: 10 * time.Millisecond,
		StreamProgress:  10 * time.Millisecond,
	})
	resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query",
		QueryRequest{Plan: filterPlan("Is the heartbeat cadence observable on this document?")})
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	heartbeats := 0
	for _, ev := range events {
		if ev.name == api.EventHeartbeat {
			heartbeats++
			var hb api.HeartbeatEvent
			decodeEvent(t, ev, &hb)
			if hb.UptimeMS < 0 {
				t.Errorf("heartbeat uptime %d < 0", hb.UptimeMS)
			}
		}
	}
	// The 16 llmFilter calls are in flight together (a model stage keeps
	// up to 64), so the stream stays alive for one 50ms round trip: a
	// 10ms cadence must tick several times.
	if heartbeats < 2 {
		t.Errorf("saw %d heartbeats on a slow stream, want ≥2 (events: %v)", heartbeats, eventNames(events))
	}
	if last := events[len(events)-1]; last.name != api.EventResult {
		t.Errorf("terminal event = %q, want result", last.name)
	}
}

// TestQueryStreamInvalidPlanErrorEvent: failures after the stream opened
// arrive as a terminal error event carrying the unified envelope.
func TestQueryStreamInvalidPlanErrorEvent(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	bad := json.RawMessage(`{"nodes":[
		{"id":"n1","op":"queryDatabase","filters":[{"field":"hallucinated","kind":"term","value":1}]}],
		"output":"n1"}`)
	resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query", QueryRequest{Plan: bad})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d; post-open failures must arrive as events", resp.StatusCode)
	}
	events := readSSE(t, resp.Body)
	last := events[len(events)-1]
	if last.name != api.EventError {
		t.Fatalf("terminal event = %q, want error (events: %v)", last.name, eventNames(events))
	}
	var env errorResponse
	decodeEvent(t, last, &env)
	if env.Error.Code != api.CodeInvalidPlan || len(env.Error.Details) == 0 {
		t.Errorf("error event envelope = %+v, want invalid_plan with details", env)
	}
}

// goroutineDump is the stack of every goroutine, for leak reports.
func goroutineDump() string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	return buf.String()
}

// expectNoQueryGoroutines runs fn — requests against an already-warm test
// server — and then waits for the goroutine count to settle back to where
// it started. A count that stays high fails the test only when a query's
// own frames (handler, executor, pipeline stages) are still on a stack:
// idle HTTP connections come and go on their own schedule.
func expectNoQueryGoroutines(t *testing.T, fn func()) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	before := runtime.NumGoroutine()
	fn()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		dump := goroutineDump()
		for _, frame := range []string{"(*Server).handleQuery", "(*Server).streamQuery", "aryn/internal/luna.", "aryn/internal/docset."} {
			if strings.Contains(dump, frame) {
				t.Errorf("goroutines: %d before, %d after, with %s still running:\n%s", before, after, frame, dump)
				return
			}
		}
	}
}

// TestQueryStreamLeavesNoGoroutines: a streamed query that runs to its
// terminal event leaves no handler, executor or pipeline goroutine behind.
func TestQueryStreamLeavesNoGoroutines(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{StreamProgress: 5 * time.Millisecond})
	getJSON(t, ts.URL+"/v1/stats", &StatsResponse{}) // warm the client and the listener
	expectNoQueryGoroutines(t, func() {
		resp := sseOpen(t, context.Background(), "POST", ts.URL+"/v1/query",
			QueryRequest{Plan: filterPlan("Does this document leave a goroutine behind?")})
		defer resp.Body.Close()
		events := readSSE(t, resp.Body)
		if last := events[len(events)-1]; last.name != api.EventResult {
			t.Fatalf("terminal event = %q, want result", last.name)
		}
	})
}

// TestQueryStreamDisconnectReleasesSlot: a client that vanishes
// mid-stream must not wedge the executor — the admission slot frees, the
// next request runs, and the goroutine count returns to where it started.
// This is the regression test for the drain loop in streamQuery.
func TestQueryStreamDisconnectReleasesSlot(t *testing.T) {
	ts := newTestServer(t, verySlowSystem(t), Config{
		MaxInFlight:     1,
		StreamProgress:  5 * time.Millisecond,
		StreamHeartbeat: 10 * time.Millisecond,
	})
	getJSON(t, ts.URL+"/v1/stats", &StatsResponse{}) // warm the client and the listener
	expectNoQueryGoroutines(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		resp := sseOpen(t, ctx, "POST", ts.URL+"/v1/query",
			QueryRequest{Plan: filterPlan("Did this document survive a client disconnect?")})

		// Wait for the first event so execution has demonstrably started,
		// then drop the connection.
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("read first event line: %v", err)
		}
		cancel()
		resp.Body.Close()

		// The slot must free (the handler drains the hooks until the executor
		// notices cancellation). A wedged drain holds InFlight at 1 forever.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st StatsResponse
			getJSON(t, ts.URL+"/v1/stats", &st)
			if st.Gate.InFlight == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission slot still held %v after client disconnect: %+v", 10*time.Second, st.Gate)
			}
			time.Sleep(10 * time.Millisecond)
		}

		// And the single slot is usable again: an LLM-free plan answers fast.
		countPlan := json.RawMessage(`{"nodes":[
			{"id":"n1","op":"queryDatabase"},
			{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}`)
		var out QueryResponse
		if resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Plan: countPlan}, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("follow-up query status = %d; the slot was not released cleanly", resp.StatusCode)
		}
		if out.Answer != "16" {
			t.Errorf("follow-up answer = %q, want 16", out.Answer)
		}
	})
}
