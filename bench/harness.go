package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/resilience"
	"aryn/internal/server"
)

// simLatency is the standard Sim profile of every workload: one round
// trip per dispatch, and a batched dispatch pays it once.
const simLatency = 5 * time.Millisecond

// clients is the number of closed-loop keep-alive clients: the core count
// of the reference box, fixed so numbers compare across machines.
const clients = 2

// harness is one wired system served on a loopback listener in this
// process: the same wiring cmd/arynd uses, reached the way a client
// reaches it.
type harness struct {
	sys *core.System
	srv *server.Server
	ts  *httptest.Server
}

// newHarness wires a system as cmd/arynd does and applies the workload's
// own changes to that configuration.
func newHarness(tune func(*core.Config)) *harness {
	cfg := core.Config{
		Seed:        7,
		Parallelism: 8,
		Resilience:  &resilience.Options{},
		LLMOptions:  []llm.SimOption{llm.WithLatency(simLatency)},
	}
	if tune != nil {
		tune(&cfg)
	}
	sys := core.New(cfg)
	srv := server.New(sys, server.Config{})
	return &harness{sys: sys, srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// close stops the listener and the server's background goroutines.
func (h *harness) close() {
	h.ts.Close()
	h.srv.Close()
}

// client is one keep-alive connection's worth of HTTP client.
type client struct {
	hc   *http.Client
	base string
}

func (h *harness) newClient() *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: h.ts.URL,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// ---- wire shapes: only the fields the harness reads ----

type queryReply struct {
	Answer   string `json:"answer"`
	Kind     string `json:"kind"`
	Docs     int    `json:"docs"`
	Degraded bool   `json:"degraded"`
}

type planReply struct {
	Plan struct {
		Rewritten json.RawMessage `json:"rewritten"`
	} `json:"plan"`
}

type chatReply struct {
	SessionID string `json:"session_id"`
	Answer    string `json:"answer"`
	Degraded  bool   `json:"degraded"`
}

type jobReply struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	Error *struct {
		Message string `json:"message"`
	} `json:"error"`
}

type endpointStats struct {
	ServerErrors int64 `json:"server_errors"`
	Shed         int64 `json:"shed"`
}

type statsReply struct {
	Docs       int `json:"docs"`
	Resilience *struct {
		Retries int64 `json:"retries"`
		Breaker struct {
			Opens int64 `json:"opens"`
		} `json:"breaker"`
	} `json:"resilience"`
	Endpoints map[string]endpointStats `json:"endpoints"`
}

// planShape is the part of a plan's JSON the harness inspects.
type planShape struct {
	Nodes []planNodeShape `json:"nodes"`
}

type planNodeShape struct {
	ID    string `json:"id"`
	Op    string `json:"op"`
	Query string `json:"query"`
	// Question is the predicate of an llmFilter or of a fraction.
	Question string `json:"question"`
	Keyword  string `json:"keyword"`
	K        int    `json:"k"`
	Filters  []struct {
		Field string `json:"field"`
		Kind  string `json:"kind"`
		Value any    `json:"value"`
	} `json:"filters"`
}

// ---- requests ----

// call sends one request and returns the status and the whole body.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// callJSON sends one request and decodes a 2xx reply into out, returning
// the reply's size. Any other status, or a body that does not decode, is
// an error: the workloads are chosen so that no operation fails.
func (c *client) callJSON(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	status, data, err := c.call(ctx, method, path, body)
	if err != nil {
		return 0, err
	}
	if status/100 != 2 {
		return len(data), fmt.Errorf("%s %s: status %d: %s", method, path, status, firstLine(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("%s %s: malformed reply: %w", method, path, err)
	}
	return len(data), nil
}

func (c *client) postJSON(ctx context.Context, path string, body []byte, out any) (int, error) {
	return c.callJSON(ctx, http.MethodPost, path, body, out)
}

func (c *client) getJSON(ctx context.Context, path string, out any) error {
	_, err := c.callJSON(ctx, http.MethodGet, path, nil, out)
	return err
}

func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// stream is what one SSE response amounted to.
type stream struct {
	reply queryReply
	// ttfe is the time from sending the request to the end of the first
	// event frame.
	ttfe        time.Duration
	events      int
	partialDocs int
	docIDs      []string
	bytes       int
}

// queryStream posts body to /v1/query asking for Server-Sent Events and
// reads the stream to its terminal event. A stream that ends without a
// "result" event, carries an "error" event, or frames an event the
// harness cannot decode is malformed and returned as an error.
func (c *client) queryStream(ctx context.Context, body []byte) (*stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /v1/query (stream): status %d: %s", resp.StatusCode, firstLine(data))
	}
	out := &stream{}
	rd := bufio.NewReader(resp.Body)
	var event string
	var data []byte
	terminal := false
	for {
		line, err := rd.ReadBytes('\n')
		out.bytes += len(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read stream: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) > 0:
			if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				event = string(v)
			} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				data = append(data[:0], v...)
			}
			continue
		case event == "":
			continue // blank line between frames
		}
		// A blank line ends the frame.
		out.events++
		if out.events == 1 {
			out.ttfe = time.Since(start)
		}
		switch event {
		case "partial":
			var p struct {
				Count int `json:"count"`
				Docs  []struct {
					ID string `json:"id"`
				} `json:"docs"`
			}
			if err := json.Unmarshal(data, &p); err != nil {
				return nil, fmt.Errorf("malformed partial event: %w", err)
			}
			if p.Count != len(p.Docs) {
				return nil, fmt.Errorf("partial event counts %d docs but carries %d", p.Count, len(p.Docs))
			}
			out.partialDocs += p.Count
			for _, d := range p.Docs {
				out.docIDs = append(out.docIDs, d.ID)
			}
		case "result":
			if err := json.Unmarshal(data, &out.reply); err != nil {
				return nil, fmt.Errorf("malformed result event: %w", err)
			}
			terminal = true
		case "error":
			return nil, fmt.Errorf("stream ended in an error event: %s", firstLine(data))
		}
		event = ""
	}
	if !terminal {
		return nil, fmt.Errorf("stream ended without a result event after %d events", out.events)
	}
	return out, nil
}

// mustJSON marshals a value the harness itself built.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
