package server

import (
	"fmt"
	"net/http"
	"time"

	"aryn/internal/server/api"
)

// handleChat serves POST /v1/chat: one turn of a stateful conversation
// (session.go owns the sessions).
func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	var req api.ChatRequest
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
		if !s.sys.Ready() {
			s.writeError(w, r, http.StatusConflict, fmt.Errorf("no data ingested yet"))
			return
		}
		var err error
		sess, err = s.sessions.create()
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
	res, err := sess.conv.Ask(ctx, s.sys.QueryService(), req.Question)
	turn := sess.conv.Turns()
	sess.mu.Unlock()
	out, err := s.queryResponse(r, req.Question, false, queryOutcome{res: res, err: err}, start)
	if err != nil {
		if fresh {
			// The client never learned this session's ID; drop it rather
			// than leak a MaxSessions slot until TTL eviction.
			s.sessions.remove(sess.id)
		}
		s.writeError(w, r, statusOf(err), err)
		return
	}
	// A degraded turn keeps the session; Ask recorded no turn for it, so
	// follow-ups resolve against the last good answer once the backend
	// recovers.
	s.writeJSON(w, http.StatusOK, api.ChatResponse{
		TraceID:        out.TraceID,
		SessionID:      sess.id,
		Turn:           turn,
		Answer:         out.Answer,
		Kind:           out.Kind,
		WallMS:         out.WallMS,
		Degraded:       out.Degraded,
		DegradedReason: out.DegradedReason,
	})
}
