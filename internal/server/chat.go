package server

import (
	"fmt"
	"net/http"
	"time"

	"aryn/internal/resilience"
)

// handleChat serves POST /v1/chat: one turn of a stateful conversation
// (session.go owns the sessions).
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
