package scenario

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/ntsb"
	"aryn/internal/server/api"
)

// Rotation counters give concurrent executions distinct inputs (fresh
// corpus seeds, cache-defeating question variants) without shared locks.
var (
	questionSeq atomic.Int64
	corpusSeq   atomic.Int64
	burstSeq    atomic.Int64
)

// oneshotQuestions is the rotating question set for the steady-state read
// path. Deliberately small: repeats across executions are what make the
// LLM cache hit-rate a meaningful serving metric.
var oneshotQuestions = []string{
	"How many incidents were there?",
	"How many incidents involved substantial damage?",
	"Which state had the most incidents?",
	"How many incidents were caused by engine failure?",
	"How many incidents involved fatalities?",
	"What fraction of incidents happened at night?",
}

func init() {
	Register(Scenario{
		Name:        "query-oneshot",
		Description: "One-shot analytics questions from a rotating set: the steady-state read path, warming and reusing the LLM response cache",
		Paper:       "§6 (Luna queries), §5 (LLM call middleware)",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			q := oneshotQuestions[int(questionSeq.Add(1))%len(oneshotQuestions)]
			var out api.QueryResponse
			if _, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: q}, &out); err != nil {
				return err
			}
			if out.Answer == "" {
				return fmt.Errorf("empty answer for %q", q)
			}
			return nil
		},
		Verify: verifyServed("/query"),
	})

	Register(Scenario{
		Name:        "ingest-multi-corpus",
		Description: "Loads two corpora per execution — a generated synthetic one and a client-supplied blob upload under its own ID namespace — and checks both land in the store",
		Paper:       "§4–5 (DocParse + Sycamore ETL over multiple corpora)",
		Execute: func(ctx context.Context, c *Client) error {
			before, err := storeDocs(ctx, c)
			if err != nil {
				return err
			}
			seed := 1000 + corpusSeq.Add(1)

			// Corpus 1: server-generated synthetic reports. A full job
			// queue sheds the submission — itself the documented bounded-
			// queue contract — so contention is an accepted outcome, not a
			// failure.
			if _, err := ingestOrShed(ctx, c, api.IngestRequest{Docs: c.Params.IngestDocs, Seed: seed}); err != nil {
				return err
			}

			// Corpus 2: client-side blobs re-keyed into their own
			// namespace, so the two corpora cannot collide on document IDs.
			blobs, err := corpusBlobs(c.Params.IngestDocs, seed)
			if err != nil {
				return err
			}
			landed, err := ingestOrShed(ctx, c, api.IngestRequest{Blobs: blobs})
			if err != nil {
				return err
			}

			// The blob corpus uses fresh IDs, so a finished upload must
			// grow the store by at least its size (nothing ever deletes).
			if landed {
				after, err := storeDocs(ctx, c)
				if err != nil {
					return err
				}
				if after < before+c.Params.IngestDocs {
					return fmt.Errorf("blob corpus did not land: %d docs before, %d after, wanted ≥ %d",
						before, after, before+c.Params.IngestDocs)
				}
			}
			return nil
		},
		Verify: func(ctx context.Context, c *Client) error {
			n, err := storeDocs(ctx, c)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("no documents in the store after ingest runs")
			}
			return nil
		},
	})

	Register(Scenario{
		Name:        "plan-edit-roundtrip",
		Description: "Plans a question, edits the returned DAG JSON (retargets a filter), dry-runs the edit, then executes it and reads back the runtime-annotated plan",
		Paper:       "§6.2 (inspect → edit → re-run plans)",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			var planned api.PlanResponse
			if _, err := c.PostJSON(ctx, "/plan",
				api.PlanRequest{Question: "How many incidents were there in Kentucky?"}, &planned); err != nil {
				return err
			}
			if len(planned.Plan.Rewritten) == 0 || planned.Plan.Compiled == "" {
				return fmt.Errorf("/plan returned no rewritten plan or compiled pipeline")
			}

			edited, err := retargetStateFilter(planned.Plan.Rewritten, "CA")
			if err != nil {
				return err
			}

			// Dry-run the edit (validation + rewrite + compile, no
			// execution), then execute it for real.
			if _, err := c.PostJSON(ctx, "/plan", api.PlanRequest{Plan: edited}, nil); err != nil {
				return err
			}
			var out api.QueryResponse
			if _, err := c.PostJSON(ctx, "/query",
				api.QueryRequest{Plan: edited, IncludePlan: true}, &out); err != nil {
				return err
			}
			if out.Answer == "" {
				return fmt.Errorf("edited plan executed to an empty answer")
			}
			if _, err := strconv.Atoi(out.Answer); err != nil {
				return fmt.Errorf("edited count plan answered %q, want a number", out.Answer)
			}
			if out.Plan == nil || len(out.Plan.Executed) == 0 {
				return fmt.Errorf("include_plan response missing the executed plan")
			}
			return nil
		},
		Verify: verifyServed("/query"),
	})

	Register(Scenario{
		Name:        "explain-analyze",
		Description: "Submits a two-root join DAG with analyze:true and checks the executed plan carries per-node runtime metrics but no answer payload",
		Paper:       "§6.2 (EXPLAIN ANALYZE), concurrent branch scheduling",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			var out api.PlanResponse
			if _, err := c.PostJSON(ctx, "/plan",
				api.PlanRequest{Plan: json.RawMessage(selfJoinPlan), Analyze: true}, &out); err != nil {
				return err
			}
			if len(out.Plan.Executed) == 0 {
				return fmt.Errorf("analyze response missing plan.executed")
			}
			var executed struct {
				Nodes []map[string]json.RawMessage `json:"nodes"`
				Exec  map[string]json.RawMessage   `json:"exec"`
			}
			if err := json.Unmarshal(out.Plan.Executed, &executed); err != nil {
				return fmt.Errorf("plan.executed is not a plan object: %w", err)
			}
			withRuntime := 0
			for _, n := range executed.Nodes {
				if _, ok := n["runtime"]; ok {
					withRuntime++
				}
			}
			if withRuntime == 0 {
				return fmt.Errorf("no node in the executed plan carries a runtime object")
			}
			if len(executed.Exec) == 0 {
				return fmt.Errorf("executed plan missing the query-level exec summary")
			}
			return nil
		},
		Verify: verifyServed("/plan"),
	})

	Register(Scenario{
		Name:        "chat-session",
		Description: "Opens a conversational session and plays follow-up turns, checking the session ID stays stable and the turn counter increments exactly",
		Paper:       "§6 (conversational analytics), serving-layer sessions",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			var first api.ChatResponse
			if _, err := c.PostJSON(ctx, "/chat",
				api.ChatRequest{Question: "How many incidents involved substantial damage?"}, &first); err != nil {
				return err
			}
			if first.SessionID == "" || first.Turn != 1 {
				return fmt.Errorf("first exchange = session %q turn %d, want a session at turn 1", first.SessionID, first.Turn)
			}
			followUps := []string{
				"what about destroyed aircraft?",
				"and minor damage?",
				"which of those happened at night?",
			}
			for i := 0; i < c.Params.ChatTurns; i++ {
				var resp api.ChatResponse
				if _, err := c.PostJSON(ctx, "/chat", api.ChatRequest{
					SessionID: first.SessionID,
					Question:  followUps[i%len(followUps)],
				}, &resp); err != nil {
					return err
				}
				if resp.SessionID != first.SessionID {
					return fmt.Errorf("turn %d switched session %q → %q", i+2, first.SessionID, resp.SessionID)
				}
				if resp.Turn != i+2 {
					return fmt.Errorf("turn counter = %d after %d exchanges, want %d", resp.Turn, i+2, i+2)
				}
			}
			return nil
		},
		Verify: func(ctx context.Context, c *Client) error {
			stats, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			if stats.Sessions.Live == 0 && stats.Sessions.Evicted == 0 {
				return fmt.Errorf("no chat sessions were ever created")
			}
			return nil
		},
	})

	Register(Scenario{
		Name:        "chat-expiry",
		Description: "Checks the session TTL contract: unknown or expired session IDs answer 404 (and, with a TTL wait configured, a real idle session is evicted)",
		Paper:       "serving-layer session lifecycle (TTL eviction)",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			status, err := c.PostJSON(ctx, "/chat", api.ChatRequest{
				SessionID: "scenario-expired-session",
				Question:  "are you still there?",
			}, nil, http.StatusNotFound)
			if err != nil {
				return err
			}
			if status != http.StatusNotFound {
				return fmt.Errorf("unknown session answered %d, want 404", status)
			}
			if c.Params.TTLWait <= 0 {
				return nil
			}
			// Against a short-TTL server (suite tests), prove a real idle
			// session is reaped: open one, go idle past the TTL, and watch
			// the follow-up turn into a 404.
			var first api.ChatResponse
			if _, err := c.PostJSON(ctx, "/chat",
				api.ChatRequest{Question: "How many incidents were there?"}, &first); err != nil {
				return err
			}
			deadline := time.Now().Add(c.Params.TTLWait + 5*time.Second)
			time.Sleep(c.Params.TTLWait)
			for {
				status, err := c.PostJSON(ctx, "/chat", api.ChatRequest{
					SessionID: first.SessionID,
					Question:  "still with me?",
				}, nil, http.StatusOK, http.StatusNotFound)
				if err != nil && !errors.Is(err, ErrShed) {
					return err
				}
				if status == http.StatusNotFound {
					return nil // evicted
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("session %s never expired after TTL wait %s", first.SessionID, c.Params.TTLWait)
				}
				time.Sleep(200 * time.Millisecond)
			}
		},
	})

	Register(Scenario{
		Name:        "overload-shed",
		Description: "Fires a burst of concurrent cache-defeating queries and checks saturation degrades only into 429+Retry-After sheds, never into errors",
		Paper:       "§3 (serving platform), bounded admission gate",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			base := burstSeq.Add(1) * 1000
			var wg sync.WaitGroup
			errs := make([]error, c.Params.BurstSize)
			for i := 0; i < c.Params.BurstSize; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// Distinct questions defeat the response cache and
					// singleflight, so every admitted request holds a slot
					// for real work.
					q := fmt.Sprintf("How many incidents were there in year %d?", 1900+base+int64(i))
					_, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: q}, nil)
					if err != nil && !errors.Is(err, ErrShed) {
						errs[i] = err
					}
				}(i)
			}
			wg.Wait()
			return errors.Join(errs...)
		},
		Verify: func(ctx context.Context, c *Client) error {
			stats, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			if stats.Gate.Admitted == 0 {
				return fmt.Errorf("admission gate admitted nothing during the run")
			}
			return nil
		},
	})

	Register(Scenario{
		Name:        "query-stream",
		Description: "Streams a fixed filter plan over SSE and cross-checks it against the batch path: a well-formed event stream, partial batches that account for the terminal result, and identical final answers on both paths",
		Paper:       "§3/§6 (pipelined execution streamed to clients)",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			plan := json.RawMessage(streamFilterPlan)
			before, err := c.Stats(ctx)
			if err != nil {
				return err
			}

			// Stream first, cache-cold relative to this execution's batch
			// run. QueryStream enforces the event grammar as it reads and
			// records time-to-first-event — TestStreamFirstPartialBeatsBatch
			// owns the timing claim.
			st, err := c.QueryStream(ctx, api.QueryRequest{Plan: plan})
			if err != nil {
				return err
			}
			if st.Result.Answer == "" {
				return fmt.Errorf("streamed plan produced an empty terminal answer")
			}
			if st.Partials > 0 && st.PartialDocs != st.Result.Docs {
				return fmt.Errorf("partials carried %d docs, terminal result says %d", st.PartialDocs, st.Result.Docs)
			}

			// The batch path must agree on the outcome — comparable only
			// when no ingest job touched the store between the two runs. A
			// running job writes documents incrementally, so quiescence
			// means no jobs in flight and none finishing.
			var batch api.QueryResponse
			if _, err := c.PostJSON(ctx, "/query", api.QueryRequest{Plan: plan}, &batch); err != nil {
				return err
			}
			after, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			quiescent := before.Docs == after.Docs &&
				before.Jobs == after.Jobs &&
				after.Jobs.Running == 0
			if quiescent && (batch.Answer != st.Result.Answer || batch.Docs != st.Result.Docs) {
				return fmt.Errorf("stream (answer %q, docs %d) != batch (answer %q, docs %d) on a stable corpus",
					st.Result.Answer, st.Result.Docs, batch.Answer, batch.Docs)
			}
			return nil
		},
		Verify: verifyServed("/query"),
	})

	Register(Scenario{
		Name:        "ingest-async",
		Description: "Submits an async ingest job (202 + job handle), keeps the read path answering while it runs, and polls the job resource to a verified terminal state",
		Paper:       "§4–5 (ETL as a background job), serving-layer job lifecycle",
		Setup:       ensureCorpus,
		Execute: func(ctx context.Context, c *Client) error {
			seed := 500_000 + corpusSeq.Add(1)
			acc, err := c.SubmitIngest(ctx, api.IngestRequest{Docs: c.Params.IngestDocs, Seed: seed})
			if err != nil {
				return err // a full job queue sheds with 429 → ErrShed
			}

			// Ingest must not block the read path: a query issued while the
			// job runs (or queues) still answers. Sheds are acceptable — the
			// admission gate owns that call — errors are not.
			var q api.QueryResponse
			if _, err := c.PostJSON(ctx, "/query",
				api.QueryRequest{Question: "How many incidents were there?"}, &q); err != nil && !errors.Is(err, ErrShed) {
				return fmt.Errorf("query during async ingest: %w", err)
			}

			job, err := c.WaitJob(ctx, acc.JobID)
			if err != nil {
				return err
			}
			if job.State == api.JobFailed {
				return fmt.Errorf("ingest job %s failed: %+v", acc.JobID, job.Error)
			}
			if job.Result == nil || job.Result.Documents < c.Params.IngestDocs {
				return fmt.Errorf("job %s done with result %+v, want ≥%d documents", acc.JobID, job.Result, c.Params.IngestDocs)
			}
			return nil
		},
		Verify: func(ctx context.Context, c *Client) error {
			stats, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			// Execute fails on its own job failing; a failed job of another
			// scenario (chaos ingests under injected faults) is that
			// scenario's to judge.
			if stats.Jobs.Done == 0 && stats.Jobs.Reaped == 0 {
				return fmt.Errorf("no ingest job ever reached a terminal state")
			}
			return nil
		},
	})
}

// streamFilterPlan is the fixed plan the streaming scenario runs on both
// paths: a scan feeding an llmFilter feeding a count. The filter stage is
// per-document LLM work, so under a latency-carrying backend the batch
// wall stretches while streaming still emits its first partial after the
// first batch clears — the shape that makes time-to-first-result visible.
const streamFilterPlan = `{"nodes":[
  {"id":"n1","op":"queryDatabase"},
  {"id":"n2","op":"llmFilter","question":"Does the report mention an engine problem?","inputs":["n1"]},
  {"id":"n3","op":"count","inputs":["n2"]}],"output":"n3"}`

// ingestOrShed runs one ingest through the job API for scenarios that
// accept contention: landed reports a done job, a shed submission is
// (false, nil), and a failed job or anything else is an error.
func ingestOrShed(ctx context.Context, c *Client, req api.IngestRequest) (landed bool, err error) {
	job, err := c.Ingest(ctx, req)
	switch {
	case errors.Is(err, ErrShed):
		return false, nil
	case err != nil:
		return false, err
	case job.State == api.JobFailed:
		return false, fmt.Errorf("ingest job %s failed: %+v", job.JobID, job.Error)
	}
	return true, nil
}

// ensureCorpus is the shared Setup for query-flavored scenarios: make
// sure the server has something to answer over, ingesting a small corpus
// if the store is empty (and, when the job queue is full of other
// clients' ingests, waiting for theirs to land).
func ensureCorpus(ctx context.Context, c *Client) error {
	n, err := storeDocs(ctx, c)
	if err != nil {
		return err
	}
	if n > 0 {
		return nil
	}
	landed, err := ingestOrShed(ctx, c, api.IngestRequest{Docs: 32, Seed: 42})
	if err != nil || landed {
		return err
	}
	// Someone else is ingesting; wait until their corpus shows up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		n, err := storeDocs(ctx, c)
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store still empty after waiting for a concurrent ingest")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// storeDocs reads the indexed document count from /healthz.
func storeDocs(ctx context.Context, c *Client) (int, error) {
	h, err := c.Healthz(ctx)
	if err != nil {
		return 0, err
	}
	n, _ := h["docs"].(float64)
	return int(n), nil
}

// corpusBlobs builds a client-side corpus of n synthetic reports under a
// seed-specific ID namespace, base64-encoded for the ingest blob path.
func corpusBlobs(n int, seed int64) (map[string]string, error) {
	corpus, err := ntsb.GenerateCorpus(n, seed)
	if err != nil {
		return nil, fmt.Errorf("generate blob corpus: %w", err)
	}
	raw, err := corpus.Blobs()
	if err != nil {
		return nil, fmt.Errorf("encode blob corpus: %w", err)
	}
	out := make(map[string]string, len(raw))
	for id, blob := range raw {
		out[fmt.Sprintf("mc%d-%s", seed, id)] = base64.StdEncoding.EncodeToString(blob)
	}
	return out, nil
}

// retargetStateFilter is the scripted §6.2 "edit": decode the plan JSON,
// point any us_state term filter at state, and re-encode. A plan without
// such a filter passes through unchanged (the round-trip is still a real
// user-submitted-plan execution).
func retargetStateFilter(plan json.RawMessage, state string) (json.RawMessage, error) {
	var p map[string]any
	if err := json.Unmarshal(plan, &p); err != nil {
		return nil, fmt.Errorf("decode plan for editing: %w", err)
	}
	nodes, _ := p["nodes"].([]any)
	for _, n := range nodes {
		node, _ := n.(map[string]any)
		filters, _ := node["filters"].([]any)
		for _, f := range filters {
			filter, _ := f.(map[string]any)
			if filter["field"] == "us_state" {
				filter["value"] = state
			}
		}
	}
	out, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("re-encode edited plan: %w", err)
	}
	return out, nil
}

// selfJoinPlan is a fixed two-root DAG (semi self-join on accident number
// then count): two independent scan branches the scheduler can overlap,
// cheap enough to analyze under load.
const selfJoinPlan = `{"nodes":[
  {"id":"n1","op":"queryDatabase"},
  {"id":"n2","op":"queryDatabase"},
  {"id":"n3","op":"join","inputs":["n1","n2"],"left_key":"accidentNumber","right_key":"accidentNumber","join_kind":"semi"},
  {"id":"n4","op":"count","inputs":["n3"]}],"output":"n4"}`

// verifyServed returns a Verify stage asserting the endpoint actually
// served successful requests during the run (per-endpoint /stats
// counters).
func verifyServed(endpoint string) func(context.Context, *Client) error {
	return func(ctx context.Context, c *Client) error {
		stats, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		ep, ok := stats.Endpoints[endpoint]
		if !ok {
			return fmt.Errorf("/stats carries no counters for %s", endpoint)
		}
		if ep.OK == 0 {
			return fmt.Errorf("%s served no successful requests", endpoint)
		}
		return nil
	}
}
