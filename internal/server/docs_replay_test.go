package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/server/api"
)

// docs_replay_test replays every HTTP example in docs/plan-api.md against
// a live handler, so the documented wire format cannot drift from the
// implementation: each curl payload must be valid JSON the server accepts,
// and the documented response/annotation keys must match what it returns.

// curlRE matches the doc's curl examples, payload included (payloads are
// JSON with double quotes only, so the non-greedy single-quote span is
// safe across line breaks).
var curlRE = regexp.MustCompile(`(?s)curl -s -X POST :8088/v1(/[a-z]+) -d '(.*?)'`)

func readPlanAPIDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "plan-api.md"))
	if err != nil {
		t.Fatalf("read docs/plan-api.md: %v", err)
	}
	return string(data)
}

// TestPlanAPIDocExamplesReplay runs every curl example from the doc and
// checks the response carries the fields the surrounding prose promises.
func TestPlanAPIDocExamplesReplay(t *testing.T) {
	doc := readPlanAPIDoc(t)
	examples := curlRE.FindAllStringSubmatch(doc, -1)
	if len(examples) < 4 {
		t.Fatalf("found %d curl examples in docs/plan-api.md, expected at least 4 (plan, dry-run, execute, analyze)", len(examples))
	}
	ts := newTestServer(t, readySystem(t), Config{})

	for i, ex := range examples {
		path, payload := ex[1], ex[2]
		t.Run(fmt.Sprintf("example_%d_%s", i+1, strings.TrimPrefix(path, "/")), func(t *testing.T) {
			var req map[string]json.RawMessage
			if err := json.Unmarshal([]byte(payload), &req); err != nil {
				t.Fatalf("documented payload is not valid JSON: %v\n%s", err, payload)
			}
			resp, err := http.Post(ts.URL+"/v1"+path, "application/json", strings.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("documented example got status %d", resp.StatusCode)
			}
			var body map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}

			_, hasQuestion := req["question"]
			_, hasPlan := req["plan"]
			analyze := string(req["analyze"]) == "true"

			switch path {
			case "/plan":
				var pr struct {
					Plan PlanDetail `json:"plan"`
				}
				mustUnmarshal(t, body, &pr)
				if hasQuestion && (pr.Plan.Original == nil || pr.Plan.Rewritten == nil || pr.Plan.Compiled == "") {
					t.Error("doc promises plan.original, plan.rewritten and plan.compiled on a planned question")
				}
				if hasPlan && !hasQuestion && (pr.Plan.Rewritten == nil || pr.Plan.Compiled == "") {
					t.Error("doc promises validation+rewrite+compile on a dry-run edit")
				}
				if analyze {
					if pr.Plan.Executed == nil {
						t.Fatal("doc promises plan.executed under analyze:true")
					}
					if _, ok := body["answer"]; ok {
						t.Error("doc says analyze returns no answer payload")
					}
					checkExecutedAnnotations(t, doc, pr.Plan.Executed)
				} else if pr.Plan.Executed != nil {
					t.Error("non-analyze /plan must not execute")
				}
			case "/query":
				var qr struct {
					Answer string `json:"answer"`
				}
				mustUnmarshal(t, body, &qr)
				if qr.Answer == "" {
					t.Error("doc promises an answer on executed plans")
				}
			default:
				t.Fatalf("doc documents unknown endpoint %s", path)
			}
		})
	}
}

func mustUnmarshal(t *testing.T, body map[string]json.RawMessage, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

// checkExecutedAnnotations compares the runtime/exec keys in the doc's
// EXPLAIN ANALYZE example against a real executed plan: documented keys
// must exist, and real keys must be documented (retries is omitempty and
// deliberately undocumented as the one allowed extra).
func checkExecutedAnnotations(t *testing.T, doc string, executed json.RawMessage) {
	t.Helper()
	docRuntime, docExec := documentedAnnotationKeys(t, doc)

	var plan struct {
		Nodes []map[string]json.RawMessage `json:"nodes"`
		Exec  map[string]json.RawMessage   `json:"exec"`
	}
	if err := json.Unmarshal(executed, &plan); err != nil {
		t.Fatalf("decode executed plan: %v", err)
	}
	var withRuntime map[string]json.RawMessage
	for _, node := range plan.Nodes {
		if rt, ok := node["runtime"]; ok {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(rt, &m); err != nil {
				t.Fatalf("decode node runtime: %v", err)
			}
			withRuntime = m
			break
		}
	}
	if withRuntime == nil {
		t.Fatal("executed plan has no node with a runtime annotation")
	}
	for key := range docRuntime {
		if _, ok := withRuntime[key]; !ok {
			t.Errorf("doc documents runtime key %q the server does not emit", key)
		}
	}
	for key := range withRuntime {
		if _, ok := docRuntime[key]; !ok && key != "retries" {
			t.Errorf("server emits runtime key %q the doc does not document", key)
		}
	}
	if plan.Exec == nil {
		t.Fatal("executed plan carries no exec summary")
	}
	for key := range docExec {
		if _, ok := plan.Exec[key]; !ok {
			t.Errorf("doc documents exec key %q the server does not emit", key)
		}
	}
	for key := range plan.Exec {
		if _, ok := docExec[key]; !ok {
			t.Errorf("server emits exec key %q the doc does not document", key)
		}
	}
}

// documentedAnnotationKeys extracts the runtime and exec key sets from the
// doc's §5 annotated-plan JSON example.
func documentedAnnotationKeys(t *testing.T, doc string) (runtime, exec map[string]bool) {
	t.Helper()
	for _, block := range fencedBlocks(doc, "json") {
		var plan struct {
			Nodes []map[string]json.RawMessage `json:"nodes"`
			Exec  map[string]json.RawMessage   `json:"exec"`
		}
		if err := json.Unmarshal([]byte(block), &plan); err != nil || plan.Exec == nil {
			continue
		}
		for _, node := range plan.Nodes {
			rt, ok := node["runtime"]
			if !ok {
				continue
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(rt, &m); err != nil {
				t.Fatalf("doc runtime example is not valid JSON: %v", err)
			}
			runtime = map[string]bool{}
			for k := range m {
				runtime[k] = true
			}
			exec = map[string]bool{}
			for k := range plan.Exec {
				exec[k] = true
			}
			return runtime, exec
		}
	}
	t.Fatal("docs/plan-api.md has no annotated-plan JSON example with runtime + exec keys")
	return nil, nil
}

// fencedBlocks returns the contents of every ```lang fenced block.
func fencedBlocks(doc, lang string) []string {
	var out []string
	marker := "```" + lang
	for {
		start := strings.Index(doc, marker)
		if start < 0 {
			return out
		}
		doc = doc[start+len(marker):]
		end := strings.Index(doc, "```")
		if end < 0 {
			return out
		}
		out = append(out, doc[:end])
		doc = doc[end+3:]
	}
}

// ---- docs/streaming-api.md replay ----

// sseCurlRE matches the doc's streamed-query curl examples; asyncCurlRE
// matches the async-ingest submission example.
var (
	sseCurlRE   = regexp.MustCompile(`(?s)curl -sN -X POST :8088(/v1/[a-z]+) -H 'Accept: text/event-stream' -d '(.*?)'`)
	asyncCurlRE = regexp.MustCompile(`(?s)curl -s -X POST :8088(/v1/ingest) -d '(.*?)'`)
)

func readStreamingAPIDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "streaming-api.md"))
	if err != nil {
		t.Fatalf("read docs/streaming-api.md: %v", err)
	}
	return string(data)
}

// TestStreamingAPIDocExamplesReplay executes the streamed-query and
// async-ingest curl examples from docs/streaming-api.md against a live
// handler and holds them to the contract the doc states: a well-formed
// event stream with strictly increasing ids ending in one terminal
// result whose partial counts sum to its doc count, and a 202 job that
// runs to completion and stays pollable (JSON and SSE).
func TestStreamingAPIDocExamplesReplay(t *testing.T) {
	doc := readStreamingAPIDoc(t)
	// A dedicated system: the ingest example below grows the corpus, which
	// must not leak into the tests sharing readySystem.
	sys, err := buildSystem(core.Config{Seed: 7, Parallelism: 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{StreamProgress: 20 * time.Millisecond})
	ctx := context.Background()

	streamed := sseCurlRE.FindAllStringSubmatch(doc, -1)
	ranQuery := false
	for i, ex := range streamed {
		path, payload := ex[1], ex[2]
		if path != "/v1/query" {
			continue
		}
		ranQuery = true
		t.Run(fmt.Sprintf("sse_example_%d", i+1), func(t *testing.T) {
			if !json.Valid([]byte(payload)) {
				t.Fatalf("documented payload is not valid JSON:\n%s", payload)
			}
			resp := sseOpen(t, ctx, http.MethodPost, ts.URL+path, json.RawMessage(payload))
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("documented stream example got status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("stream content type %q", ct)
			}
			events := readSSE(t, resp.Body)
			checkDocumentedStream(t, doc, events)
		})
	}
	if !ranQuery {
		t.Fatal("docs/streaming-api.md has no streamed /v1/query curl example")
	}

	ingests := asyncCurlRE.FindAllStringSubmatch(doc, -1)
	if len(ingests) == 0 {
		t.Fatal("docs/streaming-api.md has no async /v1/ingest curl example")
	}
	for i, ex := range ingests {
		path, payload := ex[1], ex[2]
		t.Run(fmt.Sprintf("ingest_example_%d", i+1), func(t *testing.T) {
			var req struct {
				Docs int `json:"docs"`
			}
			if err := json.Unmarshal([]byte(payload), &req); err != nil {
				t.Fatalf("documented payload is not valid JSON: %v\n%s", err, payload)
			}
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("doc promises 202 Accepted, got %d", resp.StatusCode)
			}
			var acc api.JobAccepted
			if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
				t.Fatal(err)
			}
			if acc.JobID == "" || acc.Location != "/v1/jobs/"+acc.JobID {
				t.Fatalf("doc promises job_id + location: %+v", acc)
			}
			if got := resp.Header.Get("Location"); got != acc.Location {
				t.Errorf("Location header %q != body location %q", got, acc.Location)
			}
			job := pollJobDone(t, ts.URL+acc.Location)
			if job.Result == nil || job.Result.Documents < req.Docs {
				t.Fatalf("done job should carry >= %d ingested documents: %+v", req.Docs, job.Result)
			}
			// The doc's SSE poll example (placeholder job id substituted):
			// a terminal job's stream is exactly one terminal result event.
			sresp := sseOpen(t, ctx, http.MethodGet, ts.URL+acc.Location, nil)
			defer sresp.Body.Close()
			events := readSSE(t, sresp.Body)
			if len(events) == 0 || events[len(events)-1].name != api.EventResult {
				t.Fatalf("job SSE poll should end in a result event, got %v", eventNames(events))
			}
		})
	}
}

// pollJobDone polls the job URL (as the doc instructs) until terminal.
func pollJobDone(t *testing.T, url string) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var job api.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch job.State {
		case api.JobDone:
			return job
		case api.JobFailed:
			t.Fatalf("documented ingest example failed: %+v", job.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after deadline", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkDocumentedStream asserts the contract bullets the doc states for
// a streamed query, and that the doc's event table covers every event
// name the server actually emitted.
func checkDocumentedStream(t *testing.T, doc string, events []sseEvent) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	progress, partialDocs := 0, 0
	for i, ev := range events {
		if ev.id != i+1 {
			t.Fatalf("event %d has id %d: ids must increase strictly from 1", i, ev.id)
		}
		if !strings.Contains(doc, "`"+ev.name+"`") {
			t.Errorf("server emitted event %q the doc's table does not document", ev.name)
		}
		switch ev.name {
		case api.EventProgress:
			progress++
		case api.EventPartial:
			var p api.PartialEvent
			decodeEvent(t, ev, &p)
			partialDocs += p.Count
		case api.EventResult, api.EventError:
			if i != len(events)-1 {
				t.Fatalf("terminal %s event at position %d of %d", ev.name, i+1, len(events))
			}
		}
	}
	last := events[len(events)-1]
	if last.name != api.EventResult {
		t.Fatalf("documented example should end in a result event, got %v", eventNames(events))
	}
	if progress == 0 {
		t.Error("doc promises at least one progress event per stream")
	}
	var res api.QueryResponse
	decodeEvent(t, last, &res)
	if partialDocs > 0 && partialDocs != res.Docs {
		t.Errorf("partial counts sum to %d but terminal result has %d docs", partialDocs, res.Docs)
	}
}

// TestPlanAPIDocStructuredErrors pins §4: the documented invalid plan
// comes back 400 with every documented error string in the structured
// array.
func TestPlanAPIDocStructuredErrors(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	bad := `{"plan":{"nodes":[
	  {"id":"n1","op":"queryDatabase","filters":[{"field":"hallucinated","kind":"fuzzy","value":1}]},
	  {"id":"n2","op":"llmFilter","inputs":["n1"]},
	  {"id":"n3","op":"count","inputs":["n2"]}],"output":"n3"}}`
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid plan: status %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "invalid_plan" || er.Error.Message == "" || er.TraceID == "" {
		t.Errorf("400 must carry the error envelope with code and trace_id: %+v", er)
	}
	joined := strings.Join(er.Error.Details, "\n")
	for _, want := range []string{
		`filter field "hallucinated" not in schema`,
		`unknown filter kind "fuzzy"`,
		`llmFilter requires a question`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("documented error %q missing from details array: %v", want, er.Error.Details)
		}
	}
}
