package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"aryn/internal/luna"
	"aryn/internal/resilience"
	"aryn/internal/server/api"
)

// Wire helpers every handler shares: bounded strict decoding, the JSON
// writer, and the unified error envelope.

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
