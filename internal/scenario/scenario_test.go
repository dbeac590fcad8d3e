package scenario

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
	"aryn/internal/resilience"
	"aryn/internal/server"
	"aryn/internal/server/api"
)

// sharedSys is one system per test binary, ingested lazily by the
// scenarios' own Setup stages (ensureCorpus); tests layer their own
// server configs over it. It carries an inactive fault injector and the
// resilience middleware (short probe interval) so the chaos scenarios run
// in the suite without slowing their recovery checks; with no spec active
// the injector injects nothing and every other scenario behaves as before.
var (
	sharedOnce sync.Once
	sharedSys  *core.System
	sharedInj  *fault.Injector
)

func testSystem(t *testing.T) *core.System {
	t.Helper()
	sharedOnce.Do(func() {
		sharedInj = fault.New(fault.Spec{})
		sharedSys = core.New(core.Config{
			Seed:        7,
			Parallelism: 4,
			Fault:       sharedInj,
			Resilience: &resilience.Options{
				Retry:   resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 40 * time.Millisecond},
				Breaker: resilience.BreakerConfig{ProbeInterval: 150 * time.Millisecond},
			},
		})
	})
	return sharedSys
}

// newHarness stands up an in-process arynd (httptest) and a recording
// client sized for -short runs.
func newHarness(t *testing.T, cfg server.Config, params Params) (*Client, *recorder) {
	t.Helper()
	sys := testSystem(t)
	cfg.Fault = sharedInj
	srv := server.New(sys, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	rec := &recorder{}
	c := NewClient(ts.URL, WithRecorder(rec), WithParams(params))
	return c, rec
}

// shortParams keeps scenario executions light for the in-process suite.
func shortParams() Params {
	return Params{IngestDocs: 3, ChatTurns: 2, BurstSize: 4}
}

// TestEveryRegisteredScenario runs every scenario in the registry through
// a full Setup→Execute→Verify pass against an in-process server — the
// suite-level guarantee behind "every registered scenario runs green in
// CI".
func TestEveryRegisteredScenario(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("registry has %d scenarios, expected the full built-in set", len(all))
	}
	c, rec := newHarness(t, server.Config{}, shortParams())
	ctx := context.Background()
	for _, s := range all {
		t.Run(s.Name, func(t *testing.T) {
			if err := Run(ctx, s, c); err != nil {
				t.Fatalf("scenario %s failed: %v", s.Name, err)
			}
		})
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.obs) == 0 {
		t.Fatal("no observations recorded across the suite")
	}
	for _, o := range rec.obs {
		if o.Scenario == "" || o.Endpoint == "" {
			t.Fatalf("observation missing scenario/endpoint labels: %+v", o)
		}
	}
}

// TestScenariosAreSelfDescribing pins the docs contract: every scenario
// carries a name, a description, and the paper section it exercises.
func TestScenariosAreSelfDescribing(t *testing.T) {
	for _, s := range All() {
		if s.Name == "" || s.Description == "" || s.Paper == "" {
			t.Errorf("scenario %+v is not self-describing (need Name, Description, Paper)", s)
		}
		if s.Execute == nil {
			t.Errorf("scenario %s has no Execute stage", s.Name)
		}
	}
	for _, want := range []string{
		"ingest-multi-corpus", "plan-edit-roundtrip", "explain-analyze",
		"chat-session", "chat-expiry", "overload-shed", "query-oneshot",
		"query-stream", "ingest-async",
		"chaos-llm-outage", "chaos-flaky-backend", "chaos-cache-kill",
		"chaos-ingest-saturation",
	} {
		if _, ok := Get(want); !ok {
			t.Errorf("built-in scenario %q missing from the registry", want)
		}
	}
}

// TestStreamFirstPartialBeatsBatch is the acceptance proof for streamed
// execution: against a backend with real per-call latency, the SSE path
// delivers its first partial batch strictly before the batch path's total
// wall for the same plan at the same cache temperature — the LLM cache is
// purged between runs so both pay the full cold cost.
func TestStreamFirstPartialBeatsBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock latency bound")
	}
	ctx := context.Background()
	inj := fault.New(fault.Spec{})
	sys := core.New(core.Config{
		Seed:        11,
		Parallelism: 4,
		LLMMaxBatch: 1,
		LLMOptions:  []llm.SimOption{llm.WithLatency(20 * time.Millisecond)},
		Fault:       inj,
		// Per-document streaming hand-off: the first document to clear the
		// filter reaches the client immediately instead of waiting for a
		// default-sized batch to fill.
		StreamBatch: 1,
	})
	// Four windows of in-flight model calls (a model stage keeps 64
	// documents in flight whatever Parallelism is): several rounds of
	// calls, so the batch reply has to wait for the last round while the
	// stream's first partial needs only the first.
	corpus, err := ntsb.GenerateCorpus(256, 9)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Ingest(ctx, blobs); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sys, server.Config{Fault: inj})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := NewClient(ts.URL, WithParams(shortParams()))
	plan := json.RawMessage(streamFilterPlan)

	// Batch-mode wall, cache-cold: 256 llmFilter calls at 20ms each with
	// batching disabled take four rounds.
	var batch api.QueryResponse
	start := time.Now()
	if _, err := c.PostJSON(ctx, "/query", api.QueryRequest{Plan: plan}, &batch); err != nil {
		t.Fatal(err)
	}
	batchWall := time.Since(start)

	// Purge the response cache so the streamed run pays the same cost.
	if _, err := c.SetFaults(ctx, api.FaultControlRequest{PurgeLLMCache: true}); err != nil {
		t.Fatal(err)
	}

	st, err := c.QueryStream(ctx, api.QueryRequest{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Answer != batch.Answer || st.Result.Docs != batch.Docs {
		t.Fatalf("stream (answer %q, docs %d) != batch (answer %q, docs %d)",
			st.Result.Answer, st.Result.Docs, batch.Answer, batch.Docs)
	}
	if st.Partials == 0 || st.FirstPartial == 0 {
		t.Fatalf("stream carried no partial batches (events %d); nothing pipelined", st.Events)
	}
	if st.FirstPartial >= batchWall {
		t.Errorf("first partial at %s did not beat the %s batch wall", st.FirstPartial, batchWall)
	}
	t.Logf("batch wall %s, stream first partial %s, stream wall %s (%d partials)",
		batchWall, st.FirstPartial, st.Wall, st.Partials)
}

// TestChatExpiryRealTTL proves the expiry scenario detects a real TTL
// eviction against a short-TTL server.
func TestChatExpiryRealTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("TTL wait is wall-clock bound")
	}
	params := shortParams()
	params.TTLWait = 400 * time.Millisecond
	c, _ := newHarness(t, server.Config{SessionTTL: 150 * time.Millisecond}, params)
	s, ok := Get("chat-expiry")
	if !ok {
		t.Fatal("chat-expiry not registered")
	}
	if err := Run(context.Background(), s, c); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadShedAgainstTinyGate drives the overload scenario at a
// 1-slot gate and checks sheds really happen and are recorded as sheds,
// not failures.
func TestOverloadShedAgainstTinyGate(t *testing.T) {
	params := shortParams()
	params.BurstSize = 8
	c, rec := newHarness(t, server.Config{
		MaxInFlight: 1,
		MaxWaiters:  1,
		QueueWait:   20 * time.Millisecond,
	}, params)
	s, _ := Get("overload-shed")
	if err := Run(context.Background(), s, c); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	shed := 0
	for _, o := range rec.obs {
		if o.Failed {
			t.Errorf("overload against a tiny gate must shed, not fail: %+v", o)
		}
		if o.Shed {
			shed++
			if o.Status != http.StatusTooManyRequests {
				t.Errorf("shed observation with status %d", o.Status)
			}
		}
	}
	if shed == 0 {
		t.Error("an 8-burst against 1 slot + 1 waiter should record sheds")
	}
}
