package server

import "net/http"

// The dev-only chaos control plane, GET and POST /v1/faults, mounted only
// when Config.Fault is set. docs/fault-injection.md specifies it.

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
