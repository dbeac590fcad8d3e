package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"aryn/internal/fault"
	"aryn/internal/server/api"
)

// TestRouteTable walks the one route table: every route answers on its
// /v1 path (with an empty JSON body: anything but "no such route" — a 400
// for a missing question, a 404 naming the unknown job), every unprefixed
// spelling is the standard not_found envelope pointing at /v1, and /stats
// keeps one counter per logical endpoint under the unversioned name.
func TestRouteTable(t *testing.T) {
	srv := New(readySystem(t), Config{Fault: fault.New(fault.Spec{})})
	t.Cleanup(srv.Close)
	h := srv.Handler()
	do := func(method, path string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
		return rec.Code, rec.Body.Bytes()
	}

	var names []string
	for _, rt := range srv.routes() {
		names = append(names, rt.name)
		path := rt.name + strings.ReplaceAll(rt.sub, "{id}", "nope")

		status, body := do(rt.method, "/v1"+path)
		unrouted := status == http.StatusNotFound && !strings.Contains(string(body), "job")
		if unrouted || status == http.StatusMethodNotAllowed {
			t.Errorf("%s /v1%s is not routed: %d %s", rt.method, path, status, body)
		}

		status, body = do(rt.method, path)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s %s: %d body is not the error envelope: %v\n%s", rt.method, path, status, err, body)
		}
		if status != http.StatusNotFound || env.Error.Code != api.CodeNotFound || env.TraceID == "" ||
			!strings.Contains(env.Error.Message, "/v1") {
			t.Errorf("%s %s = %d %+v, want the 404 not_found envelope pointing at /v1", rt.method, path, status, env)
		}
	}

	_, body := do("GET", "/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for key := range st.Endpoints {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	const want = "/chat /faults /healthz /ingest /jobs /plan /query /stats"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("/stats endpoints keys = %q, want %q", got, want)
	}
	for _, name := range names {
		if _, ok := st.Endpoints[name]; !ok {
			t.Errorf("route %s has no /stats endpoint counter", name)
		}
	}
}

// TestUnknownFieldsRejected: DisallowUnknownFields turns a typo'd knob
// into a 400 that names it instead of silently ignoring it.
func TestUnknownFieldsRejected(t *testing.T) {
	ts := newTestServer(t, readySystem(t), Config{})
	var out errorResponse
	resp := postJSON(t, ts.URL+"/v1/query", map[string]any{"question": "x", "includeplan": true}, &out)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	if out.Error.Code != api.CodeBadRequest || !strings.Contains(out.Error.Message, "includeplan") {
		t.Errorf("400 envelope = %+v, want bad_request naming the unknown field", out)
	}
}
