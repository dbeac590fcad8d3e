package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"aryn/internal/server/api"
)

// endpointCounters accumulates per-route serving metrics. All fields are
// atomics: handlers bump them on the hot path without a lock, /stats
// reads are point-in-time snapshots.
type endpointCounters struct {
	requests     atomic.Int64
	ok           atomic.Int64 // 2xx/3xx
	clientErrors atomic.Int64 // 4xx except 429
	serverErrors atomic.Int64 // 5xx
	shed         atomic.Int64 // 429
	totalMS      atomic.Int64
	maxMS        atomic.Int64
}

func (e *endpointCounters) record(status int, elapsed time.Duration) {
	e.requests.Add(1)
	switch {
	case status == http.StatusTooManyRequests:
		e.shed.Add(1)
	case status >= 500:
		e.serverErrors.Add(1)
	case status >= 400:
		e.clientErrors.Add(1)
	default:
		e.ok.Add(1)
	}
	ms := elapsed.Milliseconds()
	e.totalMS.Add(ms)
	for {
		cur := e.maxMS.Load()
		if ms <= cur || e.maxMS.CompareAndSwap(cur, ms) {
			break
		}
	}
}

// EndpointStats is one route's /stats snapshot — the counters the
// scenario tests and the bench/ module read (the wire shape lives in the
// api package; docs/operations.md documents each field).
type EndpointStats = api.EndpointStats

func (e *endpointCounters) snapshot() EndpointStats {
	s := EndpointStats{
		Requests:     e.requests.Load(),
		OK:           e.ok.Load(),
		ClientErrors: e.clientErrors.Load(),
		ServerErrors: e.serverErrors.Load(),
		Shed:         e.shed.Load(),
		TotalMS:      e.totalMS.Load(),
		MaxMS:        e.maxMS.Load(),
	}
	if s.Requests > 0 {
		s.MeanMS = float64(s.TotalMS) / float64(s.Requests)
	}
	return s
}

// statusWriter captures the status a handler writes (200 when the handler
// never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush passes through to the underlying writer so SSE handlers can push
// each event immediately (the metrics wrapper must not buffer a stream).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// counted wraps h with the per-endpoint metrics for route.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.endpoints[route]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		ep.record(sw.status, time.Since(start))
	}
}
