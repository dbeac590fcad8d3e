package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
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
	// MaxIngestDocs caps the synthetic-corpus size one ingest request may
	// ask for (default 10000).
	MaxIngestDocs int
	// MaxIngestBodyBytes caps an ingest request body (default 64 MiB) —
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
	// Fault, when set, exposes the dev-only /v1/faults endpoint controlling
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

	traceSeq atomic.Uint64
	requests atomic.Int64
	// degradedServed counts 200s answered retrieval-only because the model
	// backend was unavailable.
	degradedServed atomic.Int64
}

// route is one row of the route table: the handler serves method /v1+name
// (plus sub for a sub-resource pattern) and records into the /stats
// endpoint counter keyed by name.
type route struct {
	method, name, sub string
	handler           http.HandlerFunc
}

// routes is the one route table, mounted at /v1 only. Work endpoints pass
// the admission gate; health, stats and the job resource never queue, the
// ingest submission has its own bounded queue (jobs.go), and the dev-only
// fault control plane exists only with Config.Fault and stays ungated (a
// saturated or faulted server must still accept "clear the faults").
func (s *Server) routes() []route {
	rt := []route{
		{"GET", "/healthz", "", s.handleHealthz},
		{"GET", "/stats", "", s.handleStats},
		{"POST", "/ingest", "", s.handleIngest},
		{"GET", "/jobs", "/{id}", s.handleJob},
		{"POST", "/plan", "", s.gated(s.handlePlan)},
		{"POST", "/query", "", s.gated(s.handleQuery)},
		{"POST", "/chat", "", s.gated(s.handleChat)},
	}
	if s.cfg.Fault != nil {
		rt = append(rt,
			route{"GET", "/faults", "", s.handleFaultsGet},
			route{"POST", "/faults", "", s.handleFaultsPost})
	}
	return rt
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
	for _, rt := range s.routes() {
		if s.endpoints[rt.name] == nil {
			s.endpoints[rt.name] = &endpointCounters{}
		}
		s.mux.HandleFunc(rt.method+" /v1"+rt.name+rt.sub, s.counted(rt.name, rt.handler))
	}
	return s
}

// Handler returns the root handler: trace-ID middleware over the mux. A
// path outside /v1 (the retired unprefixed spellings included) is answered
// here with the not_found envelope.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		trace := s.newTraceID()
		w.Header().Set("X-Trace-Id", trace)
		r = r.WithContext(withTrace(r.Context(), trace))
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			s.writeError(w, r, http.StatusNotFound, fmt.Errorf("no route %s: the API is served under /v1", r.URL.Path))
			return
		}
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
	resp := api.StatsResponse{
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
	s.writeJSON(w, http.StatusOK, resp)
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
