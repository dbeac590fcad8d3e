package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/server/api"
)

// TestConcurrentMixedWorkload drives 36 concurrent clients — 16 stateful
// /chat sessions, 16 one-shot /query clients, 4 streaming the same
// questions over SSE — and one async ingest job through one server with a
// deliberately tight admission gate over a latency-bearing LLM, asserting
// the three properties the serving layer exists for:
//
//  1. session integrity: every chat client sees its own session ID and a
//     strictly incrementing turn counter — no lost or interleaved state;
//  2. load shedding: saturation produces 429s (clients retry) instead of
//     unbounded queueing — the waiter high-water mark never exceeds
//     MaxWaiters;
//  3. determinism: identical one-shot questions get identical answers,
//     streamed or not, regardless of interleaving.
//
// Run with -race (CI does): it doubles as the data-race audit of the
// session table, conversation locking, the store's writes beside reads,
// and the Prepare swap.
func TestConcurrentMixedWorkload(t *testing.T) {
	// A system of its own: the ingest job writes to its store.
	sys, err := buildSystem(core.Config{
		Seed:        7,
		Parallelism: 4,
		LLMOptions:  []llm.SimOption{llm.WithLatency(10 * time.Millisecond)},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		MaxInFlight: 4,
		MaxWaiters:  8,
		QueueWait:   100 * time.Millisecond,
	}
	ts := newTestServer(t, sys, cfg)

	const (
		chatClients   = 16
		queryClients  = 16
		streamClients = 4
		turns         = 4
	)
	chatScript := [turns]string{
		"How many incidents involved substantial damage?",
		"what about destroyed aircraft?",
		"How many incidents were there by state?",
		"what about substantial damage?",
	}
	queryQuestions := [4]string{
		"How many incidents were there?",
		"How many incidents were there by state?",
		"How many incidents involved substantial damage?",
		"Which state had the most incidents?",
	}

	// do posts the request, retrying on 429 (the contract: shed clients
	// back off and come back). Any other non-200 is a test failure. With
	// stream set it asks for SSE and decodes the terminal result event.
	do := func(t *testing.T, req any, path string, out any, stream bool) bool {
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return false
		}
		for attempt := 0; attempt < 200; attempt++ {
			hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1"+path, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return false
			}
			hreq.Header.Set("Content-Type", "application/json")
			if stream {
				hreq.Header.Set("Accept", "text/event-stream")
			}
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Error(err)
				return false
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				resp.Body.Close()
				time.Sleep(time.Duration(5+attempt) * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s status = %d", path, resp.StatusCode)
				resp.Body.Close()
				return false
			}
			if stream {
				events := readSSE(t, resp.Body)
				if n := len(events); n > 0 && events[n-1].name == api.EventResult {
					err = json.Unmarshal(events[n-1].data, out)
				} else {
					err = fmt.Errorf("stream %v does not end in a result", eventNames(events))
				}
			} else {
				err = json.NewDecoder(resp.Body).Decode(out)
			}
			resp.Body.Close()
			if err != nil {
				t.Errorf("decode %s: %v", path, err)
				return false
			}
			return true
		}
		t.Errorf("%s still shed after 200 retries", path)
		return false
	}

	start := make(chan struct{})
	var wg sync.WaitGroup

	// Chat clients: one session each, sequential turns.
	for c := 0; c < chatClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			sessionID := ""
			for turn := 1; turn <= turns; turn++ {
				var out api.ChatResponse
				if !do(t, api.ChatRequest{SessionID: sessionID, Question: chatScript[turn-1]}, "/chat", &out, false) {
					return
				}
				if turn == 1 {
					sessionID = out.SessionID
					if sessionID == "" {
						t.Errorf("chat client %d: empty session ID", c)
						return
					}
				} else if out.SessionID != sessionID {
					t.Errorf("chat client %d: session hopped %q → %q", c, sessionID, out.SessionID)
					return
				}
				if out.Turn != turn {
					t.Errorf("chat client %d: turn = %d, want %d (lost/interleaved session state)",
						c, out.Turn, turn)
					return
				}
			}
		}(c)
	}

	// Query clients, the last few streaming: one-shot questions; record
	// answers per question to check cross-client determinism.
	answers := make([]map[string]string, queryClients+streamClients)
	for c := range answers {
		answers[c] = make(map[string]string)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < turns; i++ {
				q := queryQuestions[(c+i)%len(queryQuestions)]
				var out api.QueryResponse
				if !do(t, api.QueryRequest{Question: q}, "/query", &out, c >= queryClients) {
					return
				}
				if out.Answer == "" {
					t.Errorf("query client %d: empty answer for %q", c, q)
					return
				}
				answers[c][q] = out.Answer
			}
		}(c)
	}

	close(start)
	// The ingest job rewrites the served corpus, same documents under the
	// same IDs, so every answer stays comparable while the store takes
	// writes beside the reads.
	var acc api.JobAccepted
	if resp := postJSON(t, ts.URL+"/v1/ingest", api.IngestRequest{Docs: 10, Seed: 42}, &acc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	wg.Wait()
	waitJobState(t, ts.URL+acc.Location, api.JobDone, 30*time.Second)
	if t.Failed() {
		return
	}

	// Determinism across interleavings: every client that asked question
	// q got the same answer.
	canonical := map[string]string{}
	for c, m := range answers {
		for q, a := range m {
			if want, seen := canonical[q]; !seen {
				canonical[q] = a
			} else if a != want {
				t.Errorf("client %d: answer for %q = %q, others saw %q", c, q, a, want)
			}
		}
	}

	var stats api.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Gate.Shed == 0 {
		t.Error("36 clients against 4 slots + 8 waiters should shed at least once")
	}
	if stats.Gate.WaitersHigh > int64(cfg.MaxWaiters) {
		t.Errorf("waiter high-water %d exceeds MaxWaiters %d — queue is not bounded",
			stats.Gate.WaitersHigh, cfg.MaxWaiters)
	}
	if stats.Gate.InFlight != 0 || stats.Gate.Waiters != 0 {
		t.Errorf("gate should be drained: %+v", stats.Gate)
	}
	if stats.Sessions.Live != chatClients {
		t.Errorf("live sessions = %d, want %d", stats.Sessions.Live, chatClients)
	}
}
