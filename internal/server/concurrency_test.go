package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestConcurrentMixedWorkload drives 32 concurrent clients — half
// stateful /chat sessions, half one-shot /query — through one server
// with a deliberately tight admission gate over a latency-bearing LLM,
// asserting the three properties the serving layer exists for:
//
//  1. session integrity: every chat client sees its own session ID and a
//     strictly incrementing turn counter — no lost or interleaved state;
//  2. load shedding: saturation produces 429s (clients retry) instead of
//     unbounded queueing — the waiter high-water mark never exceeds
//     MaxWaiters;
//  3. determinism: identical one-shot questions get identical answers
//     regardless of interleaving.
//
// Run with -race (CI does): it doubles as the data-race audit of the
// session table, conversation locking, and the Prepare swap.
func TestConcurrentMixedWorkload(t *testing.T) {
	sys := latencySystem(t)
	cfg := Config{
		MaxInFlight: 4,
		MaxWaiters:  8,
		QueueWait:   100 * time.Millisecond,
	}
	ts := newTestServer(t, sys, cfg)

	const (
		chatClients  = 16
		queryClients = 16
		turns        = 4
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
	// back off and come back). Any other non-200 is a test failure.
	do := func(t *testing.T, req any, path string, out any) bool {
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return false
		}
		for attempt := 0; attempt < 200; attempt++ {
			resp, err := http.Post(ts.URL+"/v1"+path, "application/json", bytes.NewReader(body))
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
			err = json.NewDecoder(resp.Body).Decode(out)
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
				var out ChatResponse
				if !do(t, ChatRequest{SessionID: sessionID, Question: chatScript[turn-1]}, "/chat", &out) {
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

	// Query clients: one-shot questions; record answers per question to
	// check cross-client determinism.
	answers := make([]map[string]string, queryClients)
	for c := 0; c < queryClients; c++ {
		answers[c] = make(map[string]string)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < turns; i++ {
				q := queryQuestions[(c+i)%len(queryQuestions)]
				var out QueryResponse
				if !do(t, QueryRequest{Question: q}, "/query", &out) {
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
	wg.Wait()
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

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Gate.Shed == 0 {
		t.Error("32 clients against 4 slots + 8 waiters should shed at least once")
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
