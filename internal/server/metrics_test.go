package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"aryn/internal/server/api"
)

// TestEndpointCountersOnStats drives traffic through distinct outcome
// classes and checks the /stats endpoint breakdown moved accordingly —
// these counters are what this package's tests and bench/ read.
func TestEndpointCountersOnStats(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})

	// One ok query, one 400 (malformed plan JSON is a client error).
	resp := postJSON(t, ts.URL+"/v1/query", api.QueryRequest{Question: "How many incidents were there in total?"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)

	for _, route := range []string{"/healthz", "/stats", "/ingest", "/plan", "/query", "/chat"} {
		if _, ok := stats.Endpoints[route]; !ok {
			t.Errorf("stats.Endpoints missing route %q", route)
		}
	}
	q := stats.Endpoints["/query"]
	if q.OK < 1 {
		t.Errorf("/query ok = %d, want >= 1", q.OK)
	}
	if q.ClientErrors < 1 {
		t.Errorf("/query client_errors = %d, want >= 1", q.ClientErrors)
	}
	if q.Requests != q.OK+q.ClientErrors+q.ServerErrors+q.Shed {
		t.Errorf("/query outcome classes do not sum to requests: %+v", q)
	}
	// /stats itself is counted: the snapshot happens before the in-flight
	// request is recorded, so a second fetch must see the first.
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Endpoints["/stats"].Requests < 1 {
		t.Errorf("/stats requests = %d, want >= 1", stats.Endpoints["/stats"].Requests)
	}
}

// TestEndpointCountersShed pins that gate sheds land in the shed class,
// not client_errors — a client counting sheds from /v1/stats, as bench/
// does, depends on this distinction.
func TestEndpointCountersShed(t *testing.T) {
	ts := newTestServer(t, latencySystem(t), Config{
		MaxInFlight: 1,
		MaxWaiters:  0,
		QueueWait:   time.Millisecond,
	})

	const n = 8
	body := `{"question":"How many incidents were there in total?"}`
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	sheds := 0
	for i := 0; i < n; i++ {
		if <-done == http.StatusTooManyRequests {
			sheds++
		}
	}
	if sheds == 0 {
		t.Skip("no contention achieved; nothing to assert")
	}

	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	q := stats.Endpoints["/query"]
	if q.Shed != int64(sheds) {
		t.Errorf("/query shed = %d, want %d", q.Shed, sheds)
	}
	if q.ClientErrors != 0 {
		t.Errorf("sheds leaked into client_errors: %+v", q)
	}
}

func TestEndpointCountersRecord(t *testing.T) {
	var e endpointCounters
	e.record(http.StatusOK, 10*time.Millisecond)
	e.record(http.StatusNotFound, 30*time.Millisecond)
	e.record(http.StatusTooManyRequests, 0)
	e.record(http.StatusInternalServerError, 5*time.Millisecond)
	s := e.snapshot()
	if s.Requests != 4 || s.OK != 1 || s.ClientErrors != 1 || s.Shed != 1 || s.ServerErrors != 1 {
		t.Errorf("classification wrong: %+v", s)
	}
	if s.MaxMS != 30 {
		t.Errorf("max_ms = %d, want 30", s.MaxMS)
	}
	if s.TotalMS != 45 {
		t.Errorf("total_ms = %d, want 45", s.TotalMS)
	}
	if s.MeanMS != 11.25 {
		t.Errorf("mean_ms = %v, want 11.25", s.MeanMS)
	}
}
