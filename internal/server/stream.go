package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// This file implements the Server-Sent Events transport shared by the
// streamed variants of POST /v1/query (query.go) and GET /v1/jobs/{id}
// (jobs.go), both selected by "Accept: text/event-stream".
// docs/streaming-api.md specifies the event contracts.

// wantsSSE reports whether the client asked for the streaming variant.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// sseConn writes Server-Sent Events over one response. Events carry
// monotonically increasing ids and are flushed immediately; send errors
// are swallowed because a vanished client already surfaces through the
// request context.
type sseConn struct {
	w  http.ResponseWriter
	fl http.Flusher
	id int
}

// openSSE switches the response into SSE mode (nil when the transport
// cannot stream — the caller answers with a plain error instead).
func openSSE(w http.ResponseWriter) *sseConn {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	// Disable proxy-side response buffering (nginx and friends), which
	// would defeat the stream.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return &sseConn{w: w, fl: fl}
}

// send writes one event frame and flushes it.
func (c *sseConn) send(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	c.id++
	if _, err := fmt.Fprintf(c.w, "id: %d\nevent: %s\ndata: %s\n\n", c.id, event, data); err != nil {
		return
	}
	c.fl.Flush()
}
