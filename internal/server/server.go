package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
	"aryn/internal/resilience"
	"aryn/internal/server/api"
)

// Config tunes the serving layer. Zero values pick sane defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing work requests (default 16).
	MaxInFlight int
	// MaxWaiters bounds requests queued for a slot; beyond this the
	// server sheds with 429 (default 64).
	MaxWaiters int
	// QueueWait is how long a queued request waits for a slot before
	// being shed (default 2s).
	QueueWait time.Duration
	// SessionTTL evicts idle chat sessions (default 30m).
	SessionTTL time.Duration
	// MaxSessions caps live chat sessions (default 1024).
	MaxSessions int
	// RequestTimeout bounds one query/chat execution (0 picks the 60s
	// default; negative disables the bound entirely — arynd's
	// -query-timeout 0).
	RequestTimeout time.Duration
	// IngestTimeout bounds one ingest run (default 10m).
	IngestTimeout time.Duration
	// MaxIngestDocs caps the synthetic-corpus size one /ingest request
	// may ask for (default 10000).
	MaxIngestDocs int
	// MaxIngestBodyBytes caps an /ingest request body (default 64 MiB) —
	// blob uploads are big but must not be unbounded.
	MaxIngestBodyBytes int64
	// MaxBodyBytes caps every other request body (default 1 MiB).
	MaxBodyBytes int64
	// StreamHeartbeat is the SSE heartbeat cadence (default 10s) — often
	// enough that idle proxies keep the connection open, rare enough to
	// stay out of the data's way.
	StreamHeartbeat time.Duration
	// StreamProgress is the SSE progress-snapshot cadence (default 250ms):
	// how often a streaming query or job emits per-node counters.
	StreamProgress time.Duration
	// JobTTL is how long a terminal (done/failed) ingest job stays
	// pollable before the janitor reaps it (default 10m).
	JobTTL time.Duration
	// MaxQueuedJobs bounds ingest jobs waiting for the worker; submissions
	// beyond it are shed with 429 (default 4).
	MaxQueuedJobs int
	// Fault, when set, exposes the dev-only /faults endpoint controlling
	// the injector (wire the same injector into core.Config.Fault). Leave
	// nil in production deployments: the route is simply absent.
	Fault *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.MaxWaiters <= 0 {
		c.MaxWaiters = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.IngestTimeout <= 0 {
		c.IngestTimeout = 10 * time.Minute
	}
	if c.MaxIngestDocs <= 0 {
		c.MaxIngestDocs = 10000
	}
	if c.MaxIngestBodyBytes <= 0 {
		c.MaxIngestBodyBytes = 64 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 10 * time.Second
	}
	if c.StreamProgress <= 0 {
		c.StreamProgress = 250 * time.Millisecond
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.MaxQueuedJobs <= 0 {
		c.MaxQueuedJobs = 4
	}
	return c
}

// Server serves one core.System to concurrent clients.
type Server struct {
	sys       *core.System
	cfg       Config
	gate      *gate
	sessions  *sessionTable
	jobs      *jobManager
	mux       *http.ServeMux
	start     time.Time
	endpoints map[string]*endpointCounters

	// ingestMu makes ingest runs exclusive: a second concurrent /ingest
	// gets 409 instead of racing the pipeline.
	ingestMu sync.Mutex

	traceSeq atomic.Uint64
	requests atomic.Int64
	// degradedServed counts 200s answered retrieval-only because the model
	// backend was unavailable.
	degradedServed atomic.Int64
}

// New wraps sys in a serving layer.
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		gate:      newGate(cfg.MaxInFlight, cfg.MaxWaiters, cfg.QueueWait),
		sessions:  newSessionTable(cfg.SessionTTL, cfg.MaxSessions),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		endpoints: map[string]*endpointCounters{},
	}
	s.jobs = newJobManager(s, cfg.JobTTL, cfg.MaxQueuedJobs)
	routes := []string{"/healthz", "/stats", "/ingest", "/plan", "/query", "/chat", "/jobs"}
	if cfg.Fault != nil {
		routes = append(routes, "/faults")
	}
	for _, route := range routes {
		s.endpoints[route] = &endpointCounters{}
	}
	s.route("GET", "/healthz", s.handleHealthz)
	s.route("GET", "/stats", s.handleStats)
	s.route("POST", "/plan", s.gated(s.handlePlan))
	s.route("POST", "/query", s.gated(s.handleQuery))
	s.route("POST", "/chat", s.gated(s.handleChat))
	// Ingest splits by version: the canonical /v1 route is the async job
	// API (202 + pollable job), the legacy alias keeps the synchronous
	// contract for one release. Both share the /ingest counter.
	s.mux.HandleFunc("POST /v1/ingest", s.counted("/ingest", s.handleIngestAsync))
	s.mux.HandleFunc("POST /ingest", s.deprecated("/v1/ingest", s.counted("/ingest", s.gated(s.handleIngest))))
	// Jobs are new in /v1 — no legacy alias to deprecate.
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.counted("/jobs", s.handleJob))
	if cfg.Fault != nil {
		// Dev-only chaos control plane: not gated (a saturated or faulted
		// server must still accept "clear the faults").
		s.route("GET", "/faults", s.handleFaultsGet)
		s.route("POST", "/faults", s.handleFaultsPost)
	}
	return s
}

// route mounts h at its canonical /v1 path and keeps the legacy
// unprefixed path as a deprecated alias (answering with a Deprecation
// header and a successor-version Link). Both record into one counter
// keyed by the unversioned route name, so /stats reports logical
// endpoints, not spellings.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	counted := s.counted(path, h)
	s.mux.HandleFunc(method+" /v1"+path, counted)
	s.mux.HandleFunc(method+" "+path, s.deprecated("/v1"+path, counted))
}

// deprecated marks a legacy route alias per the versioning policy in
// docs/streaming-api.md: the response carries "Deprecation: true" and a
// Link header naming the successor route.
func (s *Server) deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=%q", successor, "successor-version"))
		h(w, r)
	}
}

// Handler returns the root handler (trace-ID middleware over the mux).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		trace := s.newTraceID()
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(withTrace(r.Context(), trace))
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops background work (the session janitor, the ingest-job
// worker and janitor).
func (s *Server) Close() {
	s.sessions.close()
	s.jobs.close()
}

// workCtx bounds one query/chat execution by RequestTimeout; a negative
// timeout means unlimited (the work still dies with the client).
func (s *Server) workCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// gated wraps a work handler with admission control: shed with 429 +
// Retry-After when saturated, and bound the request context so a stuck
// client cannot pin a slot forever. Cancellation flows through the
// context into the LLM middleware, which aborts queued calls.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.gate.acquire(r.Context())
		if !ok {
			retry := s.gate.retryAfter()
			w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
			s.writeError(w, r, http.StatusTooManyRequests,
				fmt.Errorf("server saturated (%d in flight, %d queued); retry in %s",
					s.cfg.MaxInFlight, s.cfg.MaxWaiters, retry))
			return
		}
		defer release()
		h(w, r)
	}
}

// ---- request / response shapes ----
//
// The wire types live in the api package so the scenario harness and
// external clients share them; the aliases below keep this package's
// historical names working.

type (
	IngestRequest       = api.IngestRequest
	IngestResponse      = api.IngestResponse
	QueryRequest        = api.QueryRequest
	PlanDetail          = api.PlanDetail
	QueryResponse       = api.QueryResponse
	PlanRequest         = api.PlanRequest
	PlanResponse        = api.PlanResponse
	ChatRequest         = api.ChatRequest
	ChatResponse        = api.ChatResponse
	StatsResponse       = api.StatsResponse
	FaultControlRequest = api.FaultControlRequest
	FaultStateResponse  = api.FaultStateResponse
	errorResponse       = api.ErrorEnvelope
)

// ---- handlers ----

// handleHealthz distinguishes three conditions: live (the process answers
// at all — implied by any response), ready (data is ingested and queries
// can run), and degraded (serving continues but the model backend is
// unavailable, so answers fall back to retrieval-only). Status stays 200
// even when degraded: a degraded server is still serving, and restarting
// it (what a non-200 health check triggers) would not fix the backend.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded, reason := s.sys.Degraded()
	status := "ok"
	if degraded {
		status = "degraded"
	}
	resp := map[string]any{
		"status":   status,
		"live":     true,
		"ready":    s.sys.Ready(),
		"degraded": degraded,
		"docs":     s.sys.Store.NumDocs(),
		"chunks":   s.sys.Store.NumChunks(),
		"trace_id": traceFrom(r.Context()),
	}
	if reason != "" {
		resp["reason"] = reason
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	endpoints := make(map[string]EndpointStats, len(s.endpoints))
	for route, ep := range s.endpoints {
		endpoints[route] = ep.snapshot()
	}
	degraded, _ := s.sys.Degraded()
	resp := StatsResponse{
		TraceID:        traceFrom(r.Context()),
		UptimeMS:       time.Since(s.start).Milliseconds(),
		Requests:       s.requests.Load(),
		Ready:          s.sys.Ready(),
		Docs:           s.sys.Store.NumDocs(),
		Chunks:         s.sys.Store.NumChunks(),
		Usage:          s.sys.LLM.Usage(),
		UsageFailed:    s.sys.LLM.FailedUsage(),
		LLM:            s.sys.LLMStats(),
		Gate:           s.gate.stats(),
		Sessions:       api.SessionStats{Live: s.sessions.count(), Evicted: s.sessions.evictedCount()},
		Jobs:           s.jobs.stats(),
		Degraded:       degraded,
		DegradedServed: s.degradedServed.Load(),
		Endpoints:      endpoints,
	}
	if s.sys.Resilience != nil {
		st := s.sys.Resilience.Stats()
		resp.Resilience = &st
	}
	if s.sys.Fault != nil {
		st := s.sys.Fault.Stats()
		resp.Fault = &st
	}
	ost := s.sys.OptimizerStats()
	resp.Optimizer = &ost
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !s.decodeBody(w, r, s.cfg.MaxIngestBodyBytes, &req) {
		return
	}
	// Claim exclusivity before materializing blobs: a rejected request
	// should not pay for corpus generation it will throw away.
	if !s.ingestMu.TryLock() {
		w.Header().Set("Retry-After", "5")
		s.writeError(w, r, http.StatusConflict, fmt.Errorf("an ingest is already in progress"))
		return
	}
	defer s.ingestMu.Unlock()
	blobs, err := s.ingestBlobs(req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.IngestTimeout)
	defer cancel()
	stats, err := s.sys.Ingest(ctx, blobs)
	if err != nil {
		// statusOf separates backend unavailability (503, retryable — the
		// chaos suite asserts exhausted stage retries never surface as a
		// 500) from real internal failures.
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, IngestResponse{
		TraceID:   traceFrom(r.Context()),
		Documents: stats.Documents,
		Chunks:    stats.Chunks,
		Elements:  stats.Elements,
		WallMS:    stats.Wall.Milliseconds(),
		Usage:     stats.Usage,
		LLM:       stats.LLM,
	})
}

// ingestBlobs materializes the request's document set: decoded client
// blobs when provided, a generated NTSB corpus otherwise.
func (s *Server) ingestBlobs(req IngestRequest) (map[string][]byte, error) {
	if len(req.Blobs) > 0 {
		blobs := make(map[string][]byte, len(req.Blobs))
		for id, b64 := range req.Blobs {
			raw, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return nil, fmt.Errorf("blob %q: invalid base64: %w", id, err)
			}
			blobs[id] = raw
		}
		return blobs, nil
	}
	if req.Docs <= 0 {
		return nil, fmt.Errorf("provide blobs or a positive docs count")
	}
	if req.Docs > s.cfg.MaxIngestDocs {
		return nil, fmt.Errorf("docs %d exceeds the per-request cap %d", req.Docs, s.cfg.MaxIngestDocs)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 42
	}
	corpus, err := ntsb.GenerateCorpus(req.Docs, seed)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	return corpus.Blobs()
}

// handlePlan serves POST /plan: the execution-free half of the plan API,
// plus EXPLAIN ANALYZE. With a question it runs the planner + validator +
// rewriter; with a plan it dry-runs a user edit. Either way the response
// carries the plan JSON the client can edit and POST back to /query.
// With {"analyze": true} the plan (or planned question) additionally
// executes, and the response's plan detail carries "executed" — the plan
// annotated with per-node runtime metrics — while the answer payload is
// withheld (the runtime feedback loop without the result).
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.Question == "" && len(req.Plan) == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("provide a question or a plan"))
		return
	}
	if !s.sys.Ready() {
		s.writeError(w, r, http.StatusConflict, fmt.Errorf("no data ingested yet"))
		return
	}
	ctx, cancel := s.workCtx(r)
	defer cancel()
	start := time.Now()
	svc := s.queryService(req.Optimize)

	if req.Analyze {
		s.handleAnalyze(w, r, ctx, svc, req, start)
		return
	}

	var preview *luna.PlanPreview
	if len(req.Plan) > 0 {
		plan, err := decodePlan(req.Plan)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		preview, err = svc.InspectPlan(plan)
		if err != nil {
			s.writeError(w, r, statusOf(err), err)
			return
		}
	} else {
		var err error
		preview, err = svc.PlanOnly(ctx, req.Question)
		if err != nil {
			s.writeError(w, r, statusOf(err), err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, PlanResponse{
		TraceID:  traceFrom(r.Context()),
		Question: req.Question,
		Plan:     previewDetail(preview),
		WallMS:   time.Since(start).Milliseconds(),
	})
}

// handleAnalyze serves POST /plan {"analyze": true}: EXPLAIN ANALYZE. The
// plan executes for real (semantic operators run, LLM calls are spent) —
// what comes back is the annotated plan, not the answer.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, ctx context.Context, svc *luna.Service, req PlanRequest, start time.Time) {
	var res *luna.Result
	var err error
	if len(req.Plan) > 0 {
		var plan *luna.LogicalPlan
		plan, err = decodePlan(req.Plan)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		question := req.Question
		if question == "" {
			question = "(explain analyze)"
		}
		res, err = svc.RunPlan(ctx, question, plan)
	} else {
		res, err = svc.Ask(ctx, req.Question)
	}
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	detail := resultDetail(res)
	s.writeJSON(w, http.StatusOK, PlanResponse{
		TraceID:  traceFrom(r.Context()),
		Question: req.Question,
		Plan:     detail,
		WallMS:   time.Since(start).Milliseconds(),
	})
}

// executedPlan renders a result's EXPLAIN ANALYZE annotation (nil when
// the result carries no runtime detail). The annotation is built over the
// plan that actually ran — the optimized plan when the optimize phase was
// on — so node IDs line up with the runtime trace.
func executedPlan(res *luna.Result) json.RawMessage {
	ran := res.ExecutedPlan()
	if res.Exec == nil || ran == nil {
		return nil
	}
	return json.RawMessage(ran.AnnotatedJSON(res.Exec))
}

// decodePlan parses a submitted plan body. A body that decodes to no
// nodes is not a plan at all (the retired {"ops": [...]} form lands here)
// and is refused with the validator's own empty-plan error, so it is
// answered as a request error before any stream opens.
func decodePlan(raw json.RawMessage) (*luna.LogicalPlan, error) {
	var plan luna.LogicalPlan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, fmt.Errorf("bad plan JSON: %w", err)
	}
	if len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("%w: empty plan", luna.ErrInvalidPlan)
	}
	return &plan, nil
}

// planDetail renders the plan stages for a response.
func planDetail(original, rewritten *luna.LogicalPlan, compiled string) PlanDetail {
	d := PlanDetail{Compiled: compiled}
	if original != nil {
		d.Original = json.RawMessage(original.JSON())
	}
	if rewritten != nil {
		d.Rewritten = json.RawMessage(rewritten.JSON())
	}
	return d
}

// resultDetail renders an executed result's full plan detail: the stage
// plans, the optimized plan and cost estimates when the optimize phase
// ran, and the EXPLAIN ANALYZE annotation.
func resultDetail(res *luna.Result) PlanDetail {
	d := planDetail(res.Plan, res.Rewritten, res.Compiled)
	if res.Optimized != nil {
		d.Optimized = json.RawMessage(res.Optimized.JSON())
	}
	d.Cost = res.Cost
	d.CostOptimized = res.CostOptimized
	d.Executed = executedPlan(res)
	return d
}

// previewDetail renders a planned-but-not-executed preview's plan detail,
// including the cost-annotated original and optimized plans.
func previewDetail(pv *luna.PlanPreview) PlanDetail {
	d := planDetail(pv.Plan, pv.Rewritten, pv.Compiled)
	if pv.Optimized != nil {
		d.Optimized = json.RawMessage(pv.Optimized.JSON())
	}
	d.Cost = pv.Cost
	d.CostOptimized = pv.CostOptimized
	return d
}

// queryService resolves the service for one request: the system's wired
// service, with the request's optimize override applied when present.
func (s *Server) queryService(optimize *bool) *luna.Service {
	svc := s.sys.QueryService()
	if svc != nil && optimize != nil {
		svc = svc.WithOptimize(*optimize)
	}
	return svc
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	var req ChatRequest
	if !s.decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if req.Question == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("question is required"))
		return
	}

	var sess *session
	fresh := false
	if req.SessionID == "" {
		conv, err := s.sys.NewSession()
		if err != nil {
			s.writeError(w, r, http.StatusConflict, err)
			return
		}
		sess, err = s.sessions.create(conv)
		if err != nil {
			w.Header().Set("Retry-After", "30")
			s.writeError(w, r, http.StatusTooManyRequests, err)
			return
		}
		fresh = true
	} else if sess = s.sessions.get(req.SessionID); sess == nil {
		s.writeError(w, r, http.StatusNotFound,
			fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}

	ctx, cancel := s.workCtx(r)
	defer cancel()
	start := time.Now()
	// One exchange = Ask plus the turn read, under the session lock so a
	// parallel client of the same session cannot make Turn misreport.
	sess.mu.Lock()
	res, err := sess.conv.Ask(ctx, req.Question)
	turn := sess.conv.Turns()
	sess.mu.Unlock()
	if err != nil {
		if resilience.Unavailable(err) && r.Context().Err() == nil {
			// Degrade the turn instead of 500ing. The session survives —
			// the client gets its ID and keeps its history; the failed turn
			// is not recorded, so follow-ups resolve against the last good
			// answer once the backend recovers.
			answer, _ := s.sys.RetrievalOnly(req.Question, 5)
			s.degradedServed.Add(1)
			s.writeJSON(w, http.StatusOK, ChatResponse{
				TraceID:        traceFrom(r.Context()),
				SessionID:      sess.id,
				Turn:           turn,
				Answer:         answer,
				Kind:           "retrieval-only",
				Degraded:       true,
				DegradedReason: err.Error(),
				WallMS:         time.Since(start).Milliseconds(),
			})
			return
		}
		if fresh {
			// The client never learned this session's ID; drop it rather
			// than leak a MaxSessions slot until TTL eviction.
			s.sessions.remove(sess.id)
		}
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, ChatResponse{
		TraceID:   traceFrom(r.Context()),
		SessionID: sess.id,
		Turn:      turn,
		Answer:    res.Answer.String(),
		Kind:      string(res.Answer.Kind),
		WallMS:    time.Since(start).Milliseconds(),
	})
}

// ---- fault control (dev-only chaos API) ----

func (s *Server) faultState(r *http.Request, purged int) FaultStateResponse {
	spec := s.cfg.Fault.Spec()
	return FaultStateResponse{
		TraceID:            traceFrom(r.Context()),
		Spec:               spec,
		Active:             spec.Active(),
		Stats:              s.cfg.Fault.Stats(),
		PurgedCacheEntries: purged,
	}
}

func (s *Server) handleFaultsGet(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.faultState(r, 0))
}

func (s *Server) handleFaultsPost(w http.ResponseWriter, r *http.Request) {
	var req FaultControlRequest
	if !s.decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	switch {
	case req.Clear:
		s.cfg.Fault.Clear()
	case req.Spec != nil:
		s.cfg.Fault.Set(*req.Spec)
	}
	purged := 0
	if req.PurgeLLMCache {
		purged = s.sys.PurgeLLMCache()
	}
	s.writeJSON(w, http.StatusOK, s.faultState(r, purged))
}

// ---- plumbing ----

// statusOf maps execution errors to HTTP statuses: invalid plans are the
// client's input failing to validate (400, with every node-level problem
// listed in the structured errors array), backend unavailability that
// could not be degraded is 503 (with Retry-After when the breaker knows
// its probe time), a deadline hit is 504, everything else is a server
// fault.
func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, luna.ErrInvalidPlan):
		return http.StatusBadRequest
	case resilience.Unavailable(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// decodeBody decodes a JSON request body capped at limit bytes, writing
// the error response itself (413 over the cap, 400 malformed). Without
// the cap one huge body could exhaust memory and collapse the server the
// admission gate is there to protect. Unknown fields are rejected: a
// typo'd knob silently ignored is worse than a 400 that names it.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody renders err as the unified envelope's inner object: a
// machine-matchable code derived from the HTTP status (refined by error
// identity where one status covers several conditions) plus the human
// message and any structured sub-failures.
func errorBody(status int, err error) api.ErrorBody {
	body := api.ErrorBody{Message: err.Error()}
	switch status {
	case http.StatusBadRequest:
		body.Code = api.CodeBadRequest
		if errors.Is(err, luna.ErrInvalidPlan) {
			body.Code = api.CodeInvalidPlan
		}
	case http.StatusNotFound:
		body.Code = api.CodeNotFound
	case http.StatusConflict:
		body.Code = api.CodeConflict
	case http.StatusRequestEntityTooLarge:
		body.Code = api.CodeTooLarge
	case http.StatusTooManyRequests:
		body.Code = api.CodeSaturated
	case http.StatusServiceUnavailable:
		body.Code = api.CodeUnavailable
	case http.StatusGatewayTimeout:
		body.Code = api.CodeTimeout
	default:
		body.Code = api.CodeInternal
	}
	if errors.Is(err, luna.ErrInvalidPlan) {
		// errors.Join aggregates node-level validation failures; the
		// structured array lets a plan editor show them all at once.
		body.Details = luna.Issues(err)
	}
	return body
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if after, ok := resilience.RetryAfterHint(err); ok {
		// Propagate the backend's "come back later" hint (circuit probe
		// time, injected Retry-After) so well-behaved clients pace
		// themselves instead of hammering a recovering backend.
		secs := int(after / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.writeJSON(w, status, api.ErrorEnvelope{
		Error:   errorBody(status, err),
		TraceID: traceFrom(r.Context()),
	})
}

// newTraceID mints a per-request ID: a monotonic sequence (cheap ordering
// for logs) plus the serving start time so IDs from different boots don't
// collide.
func (s *Server) newTraceID() string {
	return fmt.Sprintf("t%x-%d", s.start.UnixNano()&0xffffff, s.traceSeq.Add(1))
}

type traceKey struct{}

func withTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceFrom recovers the request's trace ID ("" outside a request).
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}
