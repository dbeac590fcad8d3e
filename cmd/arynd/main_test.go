package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"aryn/internal/core"
	"aryn/internal/server"
)

// -pprof serves a heap profile on its own listener, and the API's handler
// serves no profile at all.
func TestPprofServesHeapOnItsOwnListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := servePprof(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A heap profile is a gzipped protobuf.
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
		t.Fatalf("GET /debug/pprof/heap: %s, %d bytes starting %q", resp.Status, len(body), body[:min(len(body), 16)])
	}

	api := server.New(core.New(core.Config{Seed: 7}), server.Config{})
	defer api.Close()
	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/", "/v1/debug/pprof/heap"} {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("the API serves %s: %d", path, rec.Code)
		}
	}
}
