package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aryn/internal/server/api"
)

// FuzzDecodeBody sends any bytes as the body of POST /v1/query, /v1/plan,
// /v1/chat and /v1/ingest to decodeBody, under a 1 KiB cap so that the
// too-large path is reached too. Each either decodes the body and writes
// nothing, or answers a 4xx error envelope with a code and a message; it
// never panics.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		`{"question": "How many incidents were there in Hawaii?"}`,
		`{"plan": {"nodes": [{"id": 0, "op": "queryDatabase"}], "output": 0}, "include_plan": true}`,
		`{"question": "q", "analyze": true, "optimize": false}`,
		`{"session_id": "s1", "question": "And in Alaska?"}`,
		`{"docs": 3, "seed": 7}`,
		`{"blobs": {"a": "UkFXRE9DMg=="}}`,
		`{"questoin": "a typo'd field"}`,
		`{"docs": "three"}`,
		`{"question": "unterminated`,
		`null`,
		`[]`,
		``,
		`{} trailing`,
		`{"question": "` + strings.Repeat("x", 1<<10) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	s := &Server{}
	bodies := map[string]func() any{
		"/v1/query":  func() any { return new(api.QueryRequest) },
		"/v1/plan":   func() any { return new(api.PlanRequest) },
		"/v1/chat":   func() any { return new(api.ChatRequest) },
		"/v1/ingest": func() any { return new(api.IngestRequest) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for path, v := range bodies {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if s.decodeBody(rec, req, 1<<10, v()) {
				if rec.Body.Len() != 0 {
					t.Errorf("%s: decoded and wrote %q", path, rec.Body.String())
				}
				continue
			}
			if rec.Code < 400 || rec.Code >= 500 {
				t.Errorf("%s: refused %q with status %d, want a 4xx", path, body, rec.Code)
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
				t.Errorf("%s: refused %q with %q, not an error envelope (%v)", path, body, rec.Body.String(), err)
			}
		}
	})
}

// FuzzSSERoundTrip sends an error, a partial and a heartbeat event built
// from any message, document bytes and uptime through sseConn, and reads
// the stream back with readSSE. Every event whose payload marshals arrives
// in order, with ids counting from 1, under its name, with its payload on
// one data line; a payload that does not marshal (documents that are not
// JSON) is not sent and takes no id.
func FuzzSSERoundTrip(f *testing.F) {
	f.Add("no documents matched", []byte(`[{"id": "A"}]`), int64(1500))
	f.Add("line one\nline two\r\n\x00\xff", []byte("[\n {\"id\": \"A\"},\n {\"id\": \"B\"}\n]"), int64(-1))
	f.Add("", []byte(`not json`), int64(0))
	f.Add("data: id: event:", []byte{}, int64(1<<62))
	f.Fuzz(func(t *testing.T, message string, docs []byte, uptime int64) {
		sent := []struct {
			name    string
			payload any
		}{
			{api.EventError, api.ErrorEnvelope{Error: api.ErrorBody{Code: api.CodeInternal, Message: message}}},
			{api.EventPartial, api.PartialEvent{Seq: 1, Count: 1, Docs: docs}},
			{api.EventHeartbeat, api.HeartbeatEvent{UptimeMS: uptime}},
		}
		rec := httptest.NewRecorder()
		conn := &sseConn{w: rec, fl: rec}
		type frame struct {
			name string
			data []byte
		}
		var want []frame
		for _, ev := range sent {
			conn.send(ev.name, ev.payload)
			if data, err := json.Marshal(ev.payload); err == nil {
				want = append(want, frame{ev.name, data})
			}
		}
		got := readSSE(t, rec.Body)
		if len(got) != len(want) {
			t.Fatalf("read %d events, sent %d", len(got), len(want))
		}
		for i, ev := range got {
			if ev.id != i+1 || ev.name != want[i].name || !bytes.Equal(ev.data, want[i].data) {
				t.Errorf("event %d: id %d, %s %s; want id %d, %s %s", i, ev.id, ev.name, ev.data, i+1, want[i].name, want[i].data)
			}
		}
	})
}
