// Package api defines the wire types of the Aryn serving layer: request
// and response DTOs for every endpoint, the unified error envelope, the
// async ingest-job resource, and the SSE streaming events. The server
// marshals these; bench/ and external clients unmarshal the same structs,
// so drift between producer and consumer breaks at compile time instead
// of in production.
//
// Versioning: every endpoint is mounted under /v1/ and nowhere else
// (docs/streaming-api.md records the policy).
package api

import (
	"encoding/json"

	"aryn/internal/fault"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/resilience"
)

// ---- error envelope ----

// Error codes: a closed, machine-matchable vocabulary. Clients branch on
// Code; Message is for humans and may change freely.
const (
	// CodeBadRequest is a malformed or semantically invalid request body.
	CodeBadRequest = "bad_request"
	// CodeInvalidPlan is a submitted logical plan that failed validation;
	// Details lists every node-level problem.
	CodeInvalidPlan = "invalid_plan"
	// CodeSaturated is admission-control shedding (HTTP 429 + Retry-After).
	CodeSaturated = "saturated"
	// CodeConflict is a request that cannot run in the current state (no
	// data ingested yet).
	CodeConflict = "conflict"
	// CodeNotFound is an unknown resource (expired session, reaped job, a
	// path outside /v1).
	CodeNotFound = "not_found"
	// CodeUnavailable is backend unavailability that could not be served
	// degraded (circuit open, retries exhausted).
	CodeUnavailable = "unavailable"
	// CodeTimeout is a request that outran its execution deadline.
	CodeTimeout = "timeout"
	// CodeTooLarge is a request body over the configured byte cap.
	CodeTooLarge = "too_large"
	// CodeInternal is everything else — a server fault.
	CodeInternal = "internal"
)

// ErrorBody is the inner object of the unified error envelope.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the human-readable failure description.
	Message string `json:"message"`
	// Details lists individual sub-failures when the error aggregates
	// several (plan validation reports every invalid node at once).
	Details []string `json:"details,omitempty"`
}

// ErrorEnvelope is the single error shape every endpoint returns —
// {"error":{"code","message","details":[...]}} — and the payload of SSE
// "error" events (which omit TraceID: the stream already carried it).
type ErrorEnvelope struct {
	Error   ErrorBody `json:"error"`
	TraceID string    `json:"trace_id,omitempty"`
}

// ---- ingest ----

// IngestRequest loads documents: either raw blobs (base64 rawdoc
// binaries keyed by document ID) or a generated synthetic NTSB corpus.
type IngestRequest struct {
	// Blobs are base64-encoded rawdoc binaries keyed by document ID, ≈ 21 KB
	// per NTSB report, so a request under the 64 MiB default body cap
	// carries ≈ 3,000 reports. Each must decode as a rawdoc, or the request
	// is a 400 naming the first bad ID in sorted order.
	Blobs map[string]string `json:"blobs,omitempty"`
	// Docs generates that many synthetic NTSB reports when Blobs is empty.
	Docs int `json:"docs,omitempty"`
	// Seed drives the synthetic corpus (default 42).
	Seed int64 `json:"seed,omitempty"`
}

// IngestResponse summarizes one completed ingest run: the Result of a
// finished ingest job.
type IngestResponse struct {
	TraceID   string         `json:"trace_id"`
	Documents int            `json:"documents"`
	Chunks    int            `json:"chunks"`
	Elements  int            `json:"elements"`
	WallMS    int64          `json:"wall_ms"`
	Usage     llm.Usage      `json:"usage"`
	LLM       llm.StackStats `json:"llm"`
}

// ---- async ingest jobs ----

// Job states. Terminal states (done, failed) persist until the job TTL
// elapses, after which GET /v1/jobs/{id} answers 404.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobAccepted is the 202 response of POST /v1/ingest: the job resource
// handle. The Location header carries the same poll URL.
type JobAccepted struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id"`
	State   string `json:"state"`
	// Location is the poll URL for the job resource.
	Location string `json:"location"`
}

// JobResponse is the GET /v1/jobs/{id} snapshot and the payload of job
// SSE "progress"/"result" events.
type JobResponse struct {
	TraceID string `json:"trace_id,omitempty"`
	JobID   string `json:"job_id"`
	// State is queued → running → done | failed.
	State string `json:"state"`
	// Phase is the deepest pipeline stage work has reached while running
	// (partition, llmExtract, embed, …) — "" before the run starts.
	Phase string `json:"phase,omitempty"`
	// Docs is the corpus size the job was submitted with.
	Docs int `json:"docs"`
	// Nodes reports live per-stage progress (docs in/out) while the job
	// runs and the final counts once it completes.
	Nodes []NodeProgress `json:"nodes,omitempty"`
	// Error is set on failed jobs.
	Error *ErrorBody `json:"error,omitempty"`
	// Result is set on done jobs.
	Result *IngestResponse `json:"result,omitempty"`
	// AgeMS is how long ago the job was submitted.
	AgeMS int64 `json:"age_ms"`
}

// ---- query / plan / chat ----

// QueryRequest is a one-shot question — or a user-edited plan to execute
// (exactly one of Question/Plan drives execution; Plan wins when both are
// set, with Question kept as the display label). Send it with
// "Accept: text/event-stream" to receive the SSE stream instead of one
// JSON response (docs/streaming-api.md).
type QueryRequest struct {
	Question string `json:"question,omitempty"`
	// Plan is a logical plan to execute directly after validation (the
	// §6.2 "modify any part of the plan" path), in the DAG form
	// {"nodes": [...], "output": ...}. A body with no nodes — the retired
	// {"ops": [...]} form decodes to one — is refused as invalid_plan.
	Plan json.RawMessage `json:"plan,omitempty"`
	// RAG answers through the retrieval-augmented baseline instead of Luna.
	RAG bool `json:"rag,omitempty"`
	// IncludePlan attaches the original and rewritten plan JSON plus the
	// compiled physical pipeline to the response.
	IncludePlan bool `json:"include_plan,omitempty"`
	// Optimize overrides the server's optimize default for this request:
	// true forces the optimize phase — section-scoped llmExtracts, the
	// approximate rewrite — on, false forces it off, absent inherits the
	// server configuration. The exact rewrites run either way.
	Optimize *bool `json:"optimize,omitempty"`
}

// PlanDetail carries every stage of a query's plan: what the planner
// emitted (or the user submitted), what the optimizer made of it, the
// physical pipeline it lowers to — and, when the query executed, the
// EXPLAIN ANALYZE view: the plan annotated with per-node runtime metrics
// (wall/busy time, first-output latency, docs in/out, LLM calls/tokens/
// cache hits, retries).
type PlanDetail struct {
	Original json.RawMessage `json:"original,omitempty"`
	// Rewritten is the plan after the exact rules (fused extracts and
	// filters, pushed-down and hoisted predicates): what executes unless
	// Optimized is present.
	Rewritten json.RawMessage `json:"rewritten,omitempty"`
	// Optimized is Rewritten with its llmExtracts scoped to a section
	// (absent when the optimize phase is off for this request).
	Optimized json.RawMessage `json:"optimized,omitempty"`
	// Cost/CostOptimized are the cost model's pre-execution estimates for
	// the rewritten and optimized plans: per-node document cardinalities,
	// LLM calls, and unit costs, from default selectivities — a function
	// of the plan and the corpus size alone.
	Cost          *luna.PlanEstimate `json:"cost,omitempty"`
	CostOptimized *luna.PlanEstimate `json:"cost_optimized,omitempty"`
	Compiled      string             `json:"compiled,omitempty"`
	// Executed is the rewritten plan with a "runtime" object per node and
	// an "exec" query-level summary (wall_ms, worker budget, scheduled
	// branches). Present on executed queries (POST /v1/query with
	// include_plan, POST /v1/plan with analyze).
	Executed json.RawMessage `json:"executed,omitempty"`
}

// QueryResponse is the answer to a one-shot question, and the payload of
// the SSE "result" event.
type QueryResponse struct {
	TraceID  string      `json:"trace_id"`
	Question string      `json:"question"`
	Answer   string      `json:"answer"`
	Kind     string      `json:"kind,omitempty"`
	Docs     int         `json:"docs,omitempty"`
	Plan     *PlanDetail `json:"plan,omitempty"`
	// LLM is the shared LLM stack's activity while the question was
	// planned and run — a delta of the server-wide counters, so it
	// includes concurrent requests' calls — or absent.
	LLM    *llm.StackStats `json:"llm,omitempty"`
	WallMS int64           `json:"wall_ms"`
	// Degraded marks a retrieval-only fallback answer served because the
	// model backend was unavailable (circuit open or retries exhausted);
	// DegradedReason says why. The request still succeeded (200) — the
	// degradation contract is "a worse answer, never a 500".
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// PlanRequest plans a question — or dry-runs an edited plan — without
// executing anything, unless Analyze asks for EXPLAIN ANALYZE.
type PlanRequest struct {
	Question string `json:"question,omitempty"`
	// Plan, when set, is validated, rewritten, and compiled instead of
	// calling the planner (a dry run for hand-edited plans).
	Plan json.RawMessage `json:"plan,omitempty"`
	// Analyze executes the plan (or planned question) and returns the
	// executed plan annotated with per-node runtime metrics — EXPLAIN
	// ANALYZE: full runtime metrics without the answer payload.
	Analyze bool `json:"analyze,omitempty"`
	// Optimize overrides the server's optimization default (the
	// approximate scoped-extract rule) for this request (see
	// QueryRequest.Optimize).
	Optimize *bool `json:"optimize,omitempty"`
}

// PlanResponse is the inspectable half of the inspect→edit→re-run loop.
type PlanResponse struct {
	TraceID  string     `json:"trace_id"`
	Question string     `json:"question,omitempty"`
	Plan     PlanDetail `json:"plan"`
	WallMS   int64      `json:"wall_ms"`
}

// ChatRequest is one conversational turn. Omit SessionID to open a new
// session; reuse the returned one for follow-ups ("what about …").
type ChatRequest struct {
	SessionID string `json:"session_id,omitempty"`
	Question  string `json:"question"`
}

// ChatResponse is one conversational answer.
type ChatResponse struct {
	TraceID   string `json:"trace_id"`
	SessionID string `json:"session_id"`
	// Turn is the 1-based conversation length after this exchange —
	// clients can assert their session state was neither lost nor
	// interleaved with another session's.
	Turn   int    `json:"turn"`
	Answer string `json:"answer"`
	Kind   string `json:"kind,omitempty"`
	WallMS int64  `json:"wall_ms"`
	// Answer, Kind, WallMS and Degraded/DegradedReason are the
	// QueryResponse fields of the same name: /v1/query's shaper answers
	// the turn, a retrieval-only fallback included (not recorded in the
	// conversation history — follow-ups never resolve against a degraded
	// answer).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// ---- SSE streaming events ----

// SSE event names emitted by the streaming query endpoint. A stream is a
// sequence of progress/partial/heartbeat events followed by exactly one
// terminal event: "result" (preceded by "trace" when runtime detail
// exists) or "error". Job streams emit progress/heartbeat then one
// terminal "result".
const (
	EventProgress  = "progress"
	EventPartial   = "partial"
	EventTrace     = "trace"
	EventResult    = "result"
	EventError     = "error"
	EventHeartbeat = "heartbeat"
)

// NodeProgress is one operator's live counters inside a progress event.
type NodeProgress struct {
	// Name is the physical stage name; Tag is the logical plan-node ID it
	// lowers from ("" for untagged plumbing stages).
	Name string `json:"name"`
	Tag  string `json:"tag,omitempty"`
	// In/Out count documents entering and leaving the stage so far.
	In  int64 `json:"in"`
	Out int64 `json:"out"`
	// Batches counts the partial batches handed to the stream so far; it
	// is reported on the output pipeline's last stage (0 elsewhere).
	Batches int64 `json:"batches,omitempty"`
}

// ProgressEvent is the payload of SSE "progress" events: a point-in-time
// snapshot of every scheduled pipeline's operators.
type ProgressEvent struct {
	// Pipelines is how many execution pipelines have been scheduled so far.
	Pipelines int `json:"pipelines"`
	// Nodes concatenates the operator snapshots of every pipeline.
	Nodes []NodeProgress `json:"nodes"`
}

// PartialEvent is the payload of SSE "partial" events: result documents
// as they clear the query's output node, before the terminal result.
type PartialEvent struct {
	// Seq numbers partial batches from 1 within one stream.
	Seq int `json:"seq"`
	// Count is len(Docs); the terminal result's Docs equals the sum of all
	// partial Counts.
	Count int `json:"count"`
	// Docs holds the serialized result documents of this batch.
	Docs json.RawMessage `json:"docs"`
}

// TraceEvent is the payload of the SSE "trace" event: the EXPLAIN
// ANALYZE annotation of the executed plan, emitted once before the
// terminal result when runtime detail exists.
type TraceEvent struct {
	Executed json.RawMessage `json:"executed"`
}

// HeartbeatEvent is the payload of SSE "heartbeat" events, sent at the
// configured cadence so idle proxies keep the connection open.
type HeartbeatEvent struct {
	UptimeMS int64 `json:"uptime_ms"`
}

// ---- stats ----

// GateStats is the admission-control snapshot inside StatsResponse.
type GateStats struct {
	InFlight    int64 `json:"in_flight"`
	Waiters     int64 `json:"waiters"`
	WaitersHigh int64 `json:"waiters_high_water"`
	Admitted    int64 `json:"admitted"`
	Shed        int64 `json:"shed"`
}

// SessionStats is the chat-session snapshot inside StatsResponse.
type SessionStats struct {
	Live    int   `json:"live"`
	Evicted int64 `json:"evicted"`
}

// JobStats is the ingest-job snapshot inside StatsResponse.
type JobStats struct {
	// Queued and Running count live jobs; Done and Failed count terminal
	// jobs still retained (TTL not yet elapsed); Reaped counts jobs the
	// janitor has expired.
	Queued  int   `json:"queued"`
	Running int   `json:"running"`
	Done    int   `json:"done"`
	Failed  int   `json:"failed"`
	Reaped  int64 `json:"reaped"`
}

// EndpointStats is one route's /stats snapshot — the counters the
// server's tests and bench/ read (docs/operations.md documents each
// field). Counters are keyed by the route's name under /v1 ("/query").
type EndpointStats struct {
	Requests     int64   `json:"requests"`
	OK           int64   `json:"ok"`
	ClientErrors int64   `json:"client_errors"`
	ServerErrors int64   `json:"server_errors"`
	Shed         int64   `json:"shed"`
	TotalMS      int64   `json:"total_ms"`
	MeanMS       float64 `json:"mean_ms"`
	MaxMS        int64   `json:"max_ms"`
}

// StatsResponse is the /stats snapshot.
type StatsResponse struct {
	TraceID  string    `json:"trace_id"`
	UptimeMS int64     `json:"uptime_ms"`
	Requests int64     `json:"requests"`
	Ready    bool      `json:"ready"`
	Docs     int       `json:"docs"`
	Chunks   int       `json:"chunks"`
	Usage    llm.Usage `json:"usage"`
	// UsageFailed is spend carried by calls that ultimately errored
	// (retry storms, injected faults) — kept out of Usage so delivered
	// answers' accounting stays honest.
	UsageFailed llm.Usage      `json:"usage_failed"`
	LLM         llm.StackStats `json:"llm"`
	Gate        GateStats      `json:"admission"`
	Sessions    SessionStats   `json:"sessions"`
	Jobs        JobStats       `json:"jobs"`
	// Resilience reports the retry/breaker middleware (nil when the system
	// was built without it); Fault reports the chaos injector (nil when
	// not wired). Degraded/DegradedServed summarize degraded-mode serving.
	Resilience     *resilience.Stats `json:"resilience,omitempty"`
	Fault          *fault.Stats      `json:"fault,omitempty"`
	Degraded       bool              `json:"degraded"`
	DegradedServed int64             `json:"degraded_served"`
	// Endpoints breaks the traffic down per route: request counts by
	// outcome class (ok / client error / server error / shed) plus
	// cumulative and max handler latency — the server-side counters the
	// server's tests, bench/ and operators read.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// ---- fault control (dev-only chaos API) ----

// FaultControlRequest mutates the fault injector: activate a spec, clear
// all faults, and/or purge the LLM response cache (the cache-killed
// chaos move). Spec and Clear are mutually exclusive; Clear wins.
type FaultControlRequest struct {
	// Spec activates a new fault spec (replacing the current one; outage
	// windows re-anchor to now).
	Spec *fault.Spec `json:"spec,omitempty"`
	// Clear deactivates all fault injection.
	Clear bool `json:"clear,omitempty"`
	// PurgeLLMCache drops every resident LLM response-cache entry and the
	// plans the planner kept.
	PurgeLLMCache bool `json:"purge_llm_cache,omitempty"`
}

// FaultStateResponse reports the injector state after a control request
// (and on GET).
type FaultStateResponse struct {
	TraceID string      `json:"trace_id"`
	Spec    fault.Spec  `json:"spec"`
	Active  bool        `json:"active"`
	Stats   fault.Stats `json:"stats"`
	// PurgedCacheEntries reports how many cache entries a purge dropped.
	PurgedCacheEntries int `json:"purged_cache_entries,omitempty"`
}
