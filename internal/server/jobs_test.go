package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/server/api"
)

// jobsSystem is pre-ingested with 8 docs and carries per-call LLM latency
// with batching disabled, so an async ingest job runs long enough for the
// test to observe the running state, concurrent queries, and a full queue.
var (
	jobsOnce sync.Once
	jobsSys  *core.System
	jobsErr  error
)

func jobsSystem(t *testing.T) *core.System {
	t.Helper()
	jobsOnce.Do(func() {
		jobsSys, jobsErr = buildSystem(core.Config{
			Seed:        7,
			Parallelism: 4,
			LLMOptions:  []llm.SimOption{llm.WithLatency(20 * time.Millisecond)},
		}, 8)
	})
	if jobsErr != nil {
		t.Fatal(jobsErr)
	}
	return jobsSys
}

// TestIngestTimeoutLeavesNoGoroutines: an ingest job that
// Config.IngestTimeout cuts off mid-extract ends failed with a timeout,
// and none of its pipeline stages or index writes is left running.
func TestIngestTimeoutLeavesNoGoroutines(t *testing.T) {
	// Every extract call takes longer than the job is given.
	sys, err := buildSystem(core.Config{
		Seed:        7,
		Parallelism: 4,
		LLMOptions:  []llm.SimOption{llm.WithLatency(50 * time.Millisecond)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{IngestTimeout: 20 * time.Millisecond})
	getJSON(t, ts.URL+"/v1/stats", &api.StatsResponse{}) // warm the client and the listener
	expectNoQueryGoroutines(t, func() {
		var acc api.JobAccepted
		if resp := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 4, Seed: 60_001}, &acc); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		job := waitJobState(t, ts.URL+acc.Location, api.JobFailed, 10*time.Second)
		if job.Error == nil || job.Error.Code != api.CodeTimeout {
			t.Errorf("timed-out ingest error = %+v, want code %q", job.Error, api.CodeTimeout)
		}
	})
}

// waitJobState polls the job resource until it reports want; reaching a
// terminal state while waiting for running fails loudly (the job outran
// the test — grow the corpus).
func waitJobState(t *testing.T, url, want string, within time.Duration) api.JobResponse {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		var jr api.JobResponse
		resp := getJSON(t, url, &jr)
		if resp.StatusCode == http.StatusOK && jr.State == want {
			return jr
		}
		if want == api.JobRunning && (jr.State == api.JobDone || jr.State == api.JobFailed) {
			t.Fatalf("job reached terminal state %q before the test observed running", jr.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not reach state %q within %v (last: %+v)", want, within, jr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestJobLifecycle walks the async ingest API end to end: 202 with
// a pollable handle, live progress while queries keep answering from the
// old snapshot, queue-full shedding before any corpus is materialized, and
// the SSE variant delivering the terminal state.
func TestIngestJobLifecycle(t *testing.T) {
	ts := newTestServer(t, jobsSystem(t), Config{
		StreamProgress: 10 * time.Millisecond,
		MaxQueuedJobs:  1,
	})

	// Submit: 96 docs × 20ms extraction calls keep the worker busy for
	// hundreds of milliseconds.
	var acc api.JobAccepted
	resp := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 96, Seed: 99}, &acc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async ingest status = %d, want 202", resp.StatusCode)
	}
	if acc.JobID == "" || acc.State != api.JobQueued {
		t.Fatalf("202 body incomplete: %+v", acc)
	}
	if acc.Location != "/v1/jobs/"+acc.JobID || resp.Header.Get("Location") != acc.Location {
		t.Errorf("Location = %q (header %q), want /v1/jobs/%s", acc.Location, resp.Header.Get("Location"), acc.JobID)
	}

	jobURL := ts.URL + acc.Location
	waitJobState(t, jobURL, api.JobRunning, 10*time.Second)

	// While the job runs, queries keep answering against the last prepared
	// service (the store fills incrementally, so counts may already see
	// newly written docs — what matters is 200s, not 409s or errors).
	var q api.QueryResponse
	if qr := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Question: "How many incidents were there?"}, &q); qr.StatusCode != http.StatusOK {
		t.Fatalf("query during ingest job status = %d, want 200", qr.StatusCode)
	}
	if q.Answer == "" {
		t.Error("query during ingest returned an empty answer")
	}

	// One queue slot: a second job queues, a third is shed with 429. The
	// shed request asks for the largest corpus the server allows, which
	// takes tens of seconds to generate: it must be refused before that
	// work is done, not after.
	var accB api.JobAccepted
	if rb := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 2, Seed: 5}, &accB); rb.StatusCode != http.StatusAccepted {
		t.Fatalf("second job status = %d, want 202 (queued)", rb.StatusCode)
	}
	var erC api.ErrorEnvelope
	shedStart := time.Now()
	rc := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 10000, Seed: 6}, &erC)
	if rc.StatusCode != http.StatusTooManyRequests || erC.Error.Code != api.CodeSaturated {
		t.Errorf("overflow job = %d (%q), want 429 saturated", rc.StatusCode, erC.Error.Code)
	}
	if rc.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	if took := time.Since(shedStart); took > 2*time.Second {
		t.Errorf("shedding a 10000-document request took %v: the corpus was generated before the queue was checked", took)
	}

	// /stats sees the population.
	var st api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Jobs.Running != 1 || st.Jobs.Queued != 1 {
		t.Errorf("job stats = %+v, want 1 running + 1 queued", st.Jobs)
	}

	// The SSE variant reports progress and delivers the terminal snapshot
	// as its result event.
	sresp := sseOpen(t, context.Background(), "GET", jobURL, nil)
	defer sresp.Body.Close()
	events := readSSE(t, sresp.Body)
	if len(events) == 0 {
		t.Fatal("job stream carried no events")
	}
	last := events[len(events)-1]
	if last.name != api.EventResult {
		t.Fatalf("job stream terminal event = %q, want result", last.name)
	}
	var final api.JobResponse
	decodeEvent(t, last, &final)
	if final.State != api.JobDone || final.Result == nil {
		t.Fatalf("terminal job snapshot = %+v, want done with a result", final)
	}
	if final.Result.Documents < 96 {
		t.Errorf("done job reports %d documents, want ≥96", final.Result.Documents)
	}
	// The result names the request that submitted the job.
	if final.Result.TraceID == "" || final.Result.TraceID != acc.TraceID {
		t.Errorf("job result trace_id = %q, want the 202 reply's %q", final.Result.TraceID, acc.TraceID)
	}
	progressWithNodes := false
	for _, ev := range events[:len(events)-1] {
		if ev.name != api.EventProgress && ev.name != api.EventHeartbeat {
			t.Errorf("unexpected job stream event %q", ev.name)
		}
		if ev.name == api.EventProgress {
			var jr api.JobResponse
			decodeEvent(t, ev, &jr)
			if len(jr.Nodes) > 0 && jr.Phase != "" {
				progressWithNodes = true
			}
		}
	}
	if !progressWithNodes {
		t.Error("no progress event carried per-stage counters and a phase")
	}

	// The queued job serializes behind the first and completes too.
	done := waitJobState(t, ts.URL+"/v1/jobs/"+accB.JobID, api.JobDone, 30*time.Second)
	if done.Result == nil {
		t.Errorf("queued job finished without a result: %+v", done)
	} else if done.Result.TraceID != accB.TraceID {
		t.Errorf("queued job result trace_id = %q, want the 202 reply's %q", done.Result.TraceID, accB.TraceID)
	}

	// After the swap, queries see the new corpus.
	var q2 api.QueryResponse
	postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Question: "How many incidents were there?"}, &q2)
	if q2.Answer == "8" {
		t.Error("queries still answer from the pre-job snapshot after the job completed")
	}
}

// TestJobTTLExpiry: terminal jobs stay pollable until the TTL, then the
// janitor reaps them and the resource 404s.
func TestJobTTLExpiry(t *testing.T) {
	sys, err := buildSystem(core.Config{Seed: 3, Parallelism: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, sys, Config{JobTTL: 150 * time.Millisecond})

	var acc api.JobAccepted
	if resp := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 2}, &acc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	jobURL := ts.URL + acc.Location
	waitJobState(t, jobURL, api.JobDone, 30*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(jobURL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusNotFound {
			var er api.ErrorEnvelope
			if decodeErr := json.NewDecoder(resp.Body).Decode(&er); decodeErr != nil {
				t.Fatal(decodeErr)
			}
			resp.Body.Close()
			if er.Error.Code != api.CodeNotFound {
				t.Errorf("expired job error code = %q, want not_found", er.Error.Code)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("terminal job never expired past its TTL")
		}
		time.Sleep(25 * time.Millisecond)
	}

	var st api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Jobs.Reaped < 1 {
		t.Errorf("stats reaped = %d, want ≥1", st.Jobs.Reaped)
	}
}

// TestJobNotFound: an unknown id is a structured 404.
func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	var er api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != api.CodeNotFound || er.TraceID == "" {
		t.Errorf("404 envelope = %+v, want not_found with trace id", er)
	}
}
