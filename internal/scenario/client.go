package scenario

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aryn/internal/server/api"
)

// Observation is one recorded HTTP request issued by a scenario.
type Observation struct {
	Scenario string
	Endpoint string
	Status   int
	Latency  time.Duration
	// Shed marks a 429 — the server refusing work by contract, tracked
	// separately from failures.
	Shed bool
	// Failed marks a transport error or a status the scenario did not
	// accept.
	Failed bool
	// FirstEvent is the time to the first SSE event on a streamed request
	// (zero on plain requests).
	FirstEvent time.Duration
}

// Recorder receives every Observation a Client makes. Implementations
// must be safe for concurrent Observe calls.
type Recorder interface {
	Observe(Observation)
}

// ErrShed is returned by Client calls when the server sheds the request
// with 429. Scenarios abort the rest of their execution on it; the load
// runner counts the execution as shed, not failed.
var ErrShed = errors.New("scenario: request shed (429)")

// Params tunes how heavy one scenario execution is. Zero values pick
// defaults suited to a live benchmark run; tests shrink them.
type Params struct {
	// IngestDocs is the synthetic-corpus size ingest-flavored scenarios
	// load per corpus (default 8).
	IngestDocs int
	// ChatTurns is how many follow-up turns a conversational execution
	// plays (default 3).
	ChatTurns int
	// BurstSize is how many concurrent requests the overload scenario
	// fires per execution (default 8).
	BurstSize int
	// TTLWait, when positive, makes the chat-expiry scenario wait this
	// long for a real TTL eviction (only sensible against a server with a
	// short SessionTTL; load runs leave it zero and check the
	// unknown-session contract instead).
	TTLWait time.Duration
}

func (p Params) withDefaults() Params {
	if p.IngestDocs <= 0 {
		p.IngestDocs = 8
	}
	if p.ChatTurns <= 0 {
		p.ChatTurns = 3
	}
	if p.BurstSize <= 0 {
		p.BurstSize = 8
	}
	return p
}

// Client drives one arynd over HTTP, recording every request it makes.
// The zero Recorder discards; the load runner installs a collecting one.
type Client struct {
	base     string
	hc       *http.Client
	rec      Recorder
	scenario string
	Params   Params
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRecorder installs r as the observation sink.
func WithRecorder(r Recorder) ClientOption { return func(c *Client) { c.rec = r } }

// WithParams sets the scenario sizing knobs.
func WithParams(p Params) ClientOption { return func(c *Client) { c.Params = p } }

// NewClient returns a client for the arynd at base (e.g.
// "http://127.0.0.1:8088"). Every path a Client method takes ("/query",
// "/jobs/<id>") is the endpoint's name under /v1, the API's one prefix —
// which is also its key in the server's /stats endpoint counters.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base: base + "/v1",
		hc:   &http.Client{Timeout: 2 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	c.Params = c.Params.withDefaults()
	return c
}

// forScenario returns a shallow copy that labels observations with name.
func (c *Client) forScenario(name string) *Client {
	cc := *c
	cc.scenario = name
	return &cc
}

// withRecorder returns a shallow copy observing into r.
func (c *Client) withRecorder(r Recorder) *Client {
	cc := *c
	cc.rec = r
	return &cc
}

// Stats fetches the /v1/stats snapshot (typed against the server's api
// package, so the harness breaks at compile time if the wire shape
// drifts).
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if _, err := c.do(ctx, http.MethodGet, "/stats", nil, &out, http.StatusOK); err != nil {
		return nil, err
	}
	return &out, nil
}

// Faults fetches the /v1/faults injector state. Servers started without the
// chaos endpoint (no -fault-endpoint) answer 404, which surfaces here as
// an error — chaos scenarios turn that into a clear setup failure.
func (c *Client) Faults(ctx context.Context) (*api.FaultStateResponse, error) {
	var out api.FaultStateResponse
	if _, err := c.do(ctx, http.MethodGet, "/faults", nil, &out, http.StatusOK); err != nil {
		return nil, err
	}
	return &out, nil
}

// SetFaults posts a fault-control request (activate a spec, clear
// injection, purge the LLM cache) and returns the resulting injector
// state.
func (c *Client) SetFaults(ctx context.Context, req api.FaultControlRequest) (*api.FaultStateResponse, error) {
	var out api.FaultStateResponse
	if _, err := c.do(ctx, http.MethodPost, "/faults", req, &out, http.StatusOK); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches the /v1/healthz snapshot as a generic map.
func (c *Client) Healthz(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if _, err := c.do(ctx, http.MethodGet, "/healthz", nil, &out, http.StatusOK); err != nil {
		return nil, err
	}
	return out, nil
}

// PostJSON posts body to path and decodes a 2xx response into out (out
// may be nil). Statuses listed in accept (default: 200 only) satisfy the
// call; a 429 anywhere returns ErrShed; anything else is a failure. The
// status actually received is returned either way.
func (c *Client) PostJSON(ctx context.Context, path string, body, out any, accept ...int) (int, error) {
	return c.do(ctx, http.MethodPost, path, body, out, accept...)
}

// SubmitIngest posts req to the async ingest API and returns the accepted
// job's handle. A full job queue sheds with 429, which is ErrShed.
func (c *Client) SubmitIngest(ctx context.Context, req api.IngestRequest) (*api.JobAccepted, error) {
	var acc api.JobAccepted
	if _, err := c.do(ctx, http.MethodPost, "/ingest", req, &acc, http.StatusAccepted); err != nil {
		return nil, err
	}
	if acc.JobID == "" || acc.Location != "/v1/jobs/"+acc.JobID {
		return nil, fmt.Errorf("scenario: 202 did not carry a job handle: %+v", acc)
	}
	return &acc, nil
}

// WaitJob polls the job resource until the job is done or failed and
// returns that terminal snapshot. A failed job is not an error here: the
// caller decides which failures its contract accepts (job.Error carries
// the same code an HTTP error envelope would).
func (c *Client) WaitJob(ctx context.Context, id string) (*api.JobResponse, error) {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var job api.JobResponse
		if _, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &job); err != nil {
			return nil, err
		}
		if job.State == api.JobDone || job.State == api.JobFailed {
			return &job, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("scenario: job %s still %q after 120s", id, job.State)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Ingest runs one ingest through the job API: submit, then poll to a
// terminal state. The three outcomes a scenario meets are a done job, a
// failed job (both returned), and a shed submission (ErrShed).
func (c *Client) Ingest(ctx context.Context, req api.IngestRequest) (*api.JobResponse, error) {
	acc, err := c.SubmitIngest(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.WaitJob(ctx, acc.JobID)
}

// StreamResult summarizes one streamed query: the terminal result plus
// the streaming-specific measurements (time to first event / first
// partial batch) the batch path has no equivalent for.
type StreamResult struct {
	// Result is the terminal result event's payload — identical in shape
	// and content to a batch POST /v1/query response for the same request.
	Result api.QueryResponse
	// Events counts every SSE event on the stream; Partials counts the
	// partial-batch events among them, and PartialDocs sums the documents
	// they carried.
	Events      int
	Partials    int
	PartialDocs int
	// FirstEvent and FirstPartial are offsets from the request start;
	// FirstPartial is zero when the plan produced no output documents.
	FirstEvent   time.Duration
	FirstPartial time.Duration
	// Wall is the full stream duration, open to terminal event.
	Wall time.Duration
}

// QueryStream runs req over the SSE variant of POST /v1/query, consuming
// the stream to its terminal event. It enforces the stream contract as it
// reads — strictly increasing event ids, a result or error terminal — and
// records one Observation whose Latency is the full stream wall and whose
// FirstEvent is the time to the first event. A terminal error event
// surfaces as an error carrying the envelope's code and message.
func (c *Client) QueryStream(ctx context.Context, reqBody api.QueryRequest) (*StreamResult, error) {
	const path = "/query"
	data, err := json.Marshal(reqBody)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode stream body: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")

	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Latency: time.Since(start), Failed: true})
		return nil, fmt.Errorf("scenario: POST %s (stream): %w", path, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusTooManyRequests {
		latency := time.Since(start)
		if resp.Header.Get("Retry-After") == "" {
			c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: resp.StatusCode, Latency: latency, Failed: true})
			return nil, fmt.Errorf("scenario: %s shed without Retry-After", path)
		}
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: resp.StatusCode, Latency: latency, Shed: true})
		return nil, ErrShed
	}
	fail := func(format string, args ...any) (*StreamResult, error) {
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: resp.StatusCode, Latency: time.Since(start), Failed: true})
		return nil, fmt.Errorf("scenario: stream %s: %s", path, fmt.Sprintf(format, args...))
	}
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fail("unexpected status %d: %s", resp.StatusCode, snippet)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fail("Content-Type = %q, want text/event-stream", ct)
	}

	var (
		out      StreamResult
		gotFinal bool
		lastID   int
		evName   string
		evID     int
		evData   []byte
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if evID, err = strconv.Atoi(strings.TrimPrefix(line, "id: ")); err != nil {
				return fail("bad SSE id line %q", line)
			}
		case strings.HasPrefix(line, "event: "):
			evName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			evData = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if evName == "" {
				continue
			}
			if evID <= lastID {
				return fail("event ids must increase: %d after %d", evID, lastID)
			}
			lastID = evID
			out.Events++
			if out.FirstEvent == 0 {
				out.FirstEvent = time.Since(start)
			}
			switch evName {
			case api.EventPartial:
				var p api.PartialEvent
				if err := json.Unmarshal(evData, &p); err != nil {
					return fail("decode partial event: %v", err)
				}
				out.Partials++
				out.PartialDocs += p.Count
				if out.FirstPartial == 0 {
					out.FirstPartial = time.Since(start)
				}
			case api.EventResult:
				if err := json.Unmarshal(evData, &out.Result); err != nil {
					return fail("decode result event: %v", err)
				}
				gotFinal = true
			case api.EventError:
				var env api.ErrorEnvelope
				if err := json.Unmarshal(evData, &env); err != nil {
					return fail("decode error event: %v", err)
				}
				return fail("terminal error event %s: %s", env.Error.Code, env.Error.Message)
			case api.EventProgress, api.EventTrace, api.EventHeartbeat:
			default:
				return fail("unexpected event %q", evName)
			}
			evName, evID, evData = "", 0, nil
		}
	}
	if err := sc.Err(); err != nil {
		return fail("read stream: %v", err)
	}
	if !gotFinal {
		return fail("stream ended without a terminal result event")
	}
	out.Wall = time.Since(start)
	c.observe(Observation{
		Scenario:   c.scenario,
		Endpoint:   path,
		Status:     resp.StatusCode,
		Latency:    out.Wall,
		FirstEvent: out.FirstEvent,
	})
	return &out, nil
}

func (c *Client) do(ctx context.Context, method, path string, body, out any, accept ...int) (int, error) {
	if len(accept) == 0 {
		accept = []int{http.StatusOK}
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("scenario: encode %s body: %w", path, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}

	start := time.Now()
	resp, err := c.hc.Do(req)
	latency := time.Since(start)
	if err != nil {
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Latency: latency, Failed: true})
		return 0, fmt.Errorf("scenario: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	status := resp.StatusCode
	if status == http.StatusTooManyRequests {
		// A shed must carry Retry-After — that is the documented contract;
		// without it the 429 is a server bug, not graceful degradation.
		if resp.Header.Get("Retry-After") == "" {
			c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: status, Latency: latency, Failed: true})
			return status, fmt.Errorf("scenario: %s shed without Retry-After", path)
		}
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: status, Latency: latency, Shed: true})
		return status, ErrShed
	}

	ok := false
	for _, a := range accept {
		if status == a {
			ok = true
			break
		}
	}
	if !ok {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: status, Latency: latency, Failed: true})
		return status, fmt.Errorf("scenario: %s %s: unexpected status %d: %s", method, path, status, snippet)
	}
	if out != nil && status < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: status, Latency: latency, Failed: true})
			return status, fmt.Errorf("scenario: decode %s response: %w", path, err)
		}
	}
	c.observe(Observation{Scenario: c.scenario, Endpoint: path, Status: status, Latency: latency})
	return status, nil
}

func (c *Client) observe(o Observation) {
	if c.rec != nil {
		c.rec.Observe(o)
	}
}
