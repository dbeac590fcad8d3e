package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/fault"
	"aryn/internal/server/api"
)

// Chaos scenarios script the server's fault injector through /faults and
// assert the degradation contract from docs/fault-injection.md: under any
// injected failure, /query answers 200 (possibly degraded, possibly
// shed), never a 5xx — and once the faults end, the circuit breaker
// closes again within roughly one probe interval.
//
// They require an arynd started with -fault-endpoint (or -fault-spec);
// requireFaults turns a missing endpoint into a clear setup error. The
// chaos mix (ChaosMix) is therefore not part of the default Mixes() set.

// chaosMu serializes the fault-scripting executions: the injector is one
// global dial, so two scenarios rewriting it concurrently would invalidate
// each other's assertions. Executions take it with TryLock — a chaos
// execution launched while another is scripting faults no-ops rather than
// queueing, which keeps load-generator workers from convoying behind
// breaker-recovery waits. Non-chaos background traffic (query-oneshot in
// the chaos mix) keeps running outside the lock — that traffic only relies
// on the contract every spec guarantees, not on which spec is live.
var chaosMu sync.Mutex

// chaosSeq rotates cache-defeating questions for chaos executions, in a
// number range disjoint from the overload-shed burst questions so a chaos
// query can never be answered from another scenario's cache entry.
var chaosSeq atomic.Int64

func chaosQuestion() string {
	return fmt.Sprintf("How many incidents were there in year %d?", 1_000_000+chaosSeq.Add(1))
}

// requireFaults is the shared chaos Setup: the server must expose /faults
// and run the resilience middleware, and needs a corpus so retrieval-only
// fallbacks have something to answer from.
func requireFaults(ctx context.Context, c *Client) error {
	if _, err := c.Faults(ctx); err != nil {
		return fmt.Errorf("chaos scenarios need the /faults endpoint (start arynd with -fault-endpoint): %w", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if stats.Resilience == nil {
		return fmt.Errorf("server reports no resilience stats; chaos recovery cannot be verified")
	}
	return ensureCorpus(ctx, c)
}

// clearFaultsAndRecover is the shared chaos Verify: end injection, then
// prove the recovery half of the contract — probe traffic closes the
// breaker within about one probe interval, after which queries serve
// undegraded, /healthz drops its degraded flag, and /query has never
// answered a 5xx.
func clearFaultsAndRecover(ctx context.Context, c *Client) error {
	if _, err := c.SetFaults(ctx, api.FaultControlRequest{Clear: true}); err != nil {
		return err
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if stats.Resilience == nil {
		return fmt.Errorf("server reports no resilience stats; breaker recovery cannot be verified")
	}
	if se := stats.Endpoints["/query"].ServerErrors; se > 0 {
		return fmt.Errorf("/query answered %d server errors under fault injection; the contract is a worse answer, never a 500", se)
	}

	probe := time.Duration(stats.Resilience.Breaker.ProbeIntervalMS) * time.Millisecond
	// One interval for the open circuit to admit probes, a second for a
	// spent probe budget to refresh, plus slack for the probe queries
	// themselves on a loaded CI box.
	deadline := time.Now().Add(2*probe + 10*time.Second)
	pause := probe / 4
	if pause < 10*time.Millisecond {
		pause = 10 * time.Millisecond
	}
	for {
		// Successful traffic is what walks a breaker open → half-open →
		// closed; keep asking until the probes land.
		var out api.QueryResponse
		if _, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: chaosQuestion()}, &out); err != nil && !errors.Is(err, ErrShed) {
			return fmt.Errorf("recovery query failed: %w", err)
		}
		stats, err = c.Stats(ctx)
		if err != nil {
			return err
		}
		if stats.Resilience.Breaker.State == "closed" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("breaker still %s after faults cleared (probe interval %s)",
				stats.Resilience.Breaker.State, probe)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pause):
		}
	}

	// Closed breaker: a fresh query must serve undegraded and health must
	// be back to plain ok.
	var out api.QueryResponse
	if _, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: chaosQuestion()}, &out); err != nil {
		if errors.Is(err, ErrShed) {
			return nil
		}
		return err
	}
	if out.Degraded {
		return fmt.Errorf("query still degraded after the breaker closed: %s", out.DegradedReason)
	}
	h, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	if h["status"] != "ok" {
		return fmt.Errorf("/healthz still reports %v after recovery", h["status"])
	}
	return nil
}

func init() {
	Register(Scenario{
		Name:        "chaos-llm-outage",
		Description: "Scripts a total LLM outage mid-run and checks /query keeps answering 200 with degraded retrieval-only answers, then that the breaker closes within a probe interval of the outage ending",
		Paper:       "robustness: degraded-mode serving, circuit-breaker recovery",
		Setup:       requireFaults,
		Execute: func(ctx context.Context, c *Client) error {
			if !chaosMu.TryLock() {
				return nil // another execution is scripting faults; skip
			}
			defer chaosMu.Unlock()
			// Start from a steady state: a breaker left open by an earlier
			// chaos execution would hide whether THIS outage opens it.
			if err := clearFaultsAndRecover(ctx, c); err != nil {
				return err
			}
			stats, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			opensBefore := int64(0)
			if stats.Resilience != nil {
				opensBefore = stats.Resilience.Breaker.Opens
			}
			// Outage windows re-anchor to now on every Set, so the whole
			// execution happens inside a dead-backend world.
			if _, err := c.SetFaults(ctx, api.FaultControlRequest{Spec: &fault.Spec{
				Seed:    11,
				Outages: []fault.Window{{StartMS: 0, EndMS: 120_000}},
			}}); err != nil {
				return err
			}
			sawDegraded := false
			// Enough uncached queries to walk the breaker past its failure
			// threshold: the outage hint suppresses in-call retries, so each
			// query contributes one breaker failure until the circuit opens.
			for i := 0; i < 7; i++ {
				var out api.QueryResponse
				_, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: chaosQuestion()}, &out)
				if errors.Is(err, ErrShed) {
					continue
				}
				if err != nil {
					return fmt.Errorf("query during a total outage must degrade, not fail: %w", err)
				}
				if !out.Degraded {
					return fmt.Errorf("query during a total outage answered undegraded (%q)", out.Answer)
				}
				if out.Kind != "retrieval-only" || out.Answer == "" || out.DegradedReason == "" {
					return fmt.Errorf("degraded answer contract violated: kind=%q reason=%q empty-answer=%v",
						out.Kind, out.DegradedReason, out.Answer == "")
				}
				sawDegraded = true
			}
			if !sawDegraded {
				return fmt.Errorf("every outage query was shed; nothing exercised the degraded path")
			}
			stats, err = c.Stats(ctx)
			if err != nil {
				return err
			}
			if stats.Resilience != nil && stats.Resilience.Breaker.Opens <= opensBefore {
				return fmt.Errorf("breaker never opened across a sustained total outage")
			}
			// End the dead-backend world so concurrent background traffic
			// isn't left degrading for the scripted 120s; the breaker may
			// stay open until Verify (or the next steady-state reset)
			// walks it closed.
			_, err = c.SetFaults(ctx, api.FaultControlRequest{Clear: true})
			return err
		},
		Verify: clearFaultsAndRecover,
	})

	Register(Scenario{
		Name:        "chaos-flaky-backend",
		Description: "Runs sustained traffic against a backend failing a third of its calls and checks retries absorb the flakiness into served answers, never 5xx responses",
		Paper:       "robustness: jittered retry middleware under sustained partial failure",
		Setup:       requireFaults,
		Execute: func(ctx context.Context, c *Client) error {
			if !chaosMu.TryLock() {
				return nil // another execution is scripting faults; skip
			}
			defer chaosMu.Unlock()
			// Start from a steady state: with the breaker open (from an
			// earlier chaos execution) queries short-circuit without ever
			// reaching the retry loop this scenario asserts on.
			if err := clearFaultsAndRecover(ctx, c); err != nil {
				return err
			}
			stats, err := c.Stats(ctx)
			if err != nil {
				return err
			}
			retriesBefore := int64(0)
			if stats.Resilience != nil {
				retriesBefore = stats.Resilience.Retries
			}
			if _, err := c.SetFaults(ctx, api.FaultControlRequest{Spec: &fault.Spec{
				Seed:         13,
				ErrorRate:    0.35,
				RetryAfterMS: 5,
				LatencyMS:    10,
				LatencyRate:  0.2,
			}}); err != nil {
				return err
			}
			// Loop until the middleware has demonstrably retried (bounded:
			// at 0.35 error rate a handful of multi-call queries is plenty).
			for i := 0; i < 20; i++ {
				var out api.QueryResponse
				_, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: chaosQuestion()}, &out)
				if errors.Is(err, ErrShed) {
					continue
				}
				if err != nil {
					return fmt.Errorf("flaky backend must be absorbed or degraded, not failed: %w", err)
				}
				if out.Answer == "" {
					return fmt.Errorf("flaky-backend query served an empty answer")
				}
				stats, err = c.Stats(ctx)
				if err != nil {
					return err
				}
				if stats.Resilience != nil && stats.Resilience.Retries > retriesBefore {
					// Retries demonstrated; stop injecting before releasing
					// the lock so background traffic runs clean.
					_, err = c.SetFaults(ctx, api.FaultControlRequest{Clear: true})
					return err
				}
			}
			return fmt.Errorf("no middleware retries recorded across 20 queries at 35%% injected error rate")
		},
		Verify: clearFaultsAndRecover,
	})

	Register(Scenario{
		Name:        "chaos-cache-kill",
		Description: "Answers a query, purges the whole LLM response cache mid-run, and checks the re-asked query still serves — with the same answer when both runs reach the model",
		Paper:       "robustness: cache loss is a latency event, not a correctness event",
		Setup:       requireFaults,
		Execute: func(ctx context.Context, c *Client) error {
			if !chaosMu.TryLock() {
				return nil // another execution is scripting faults; skip
			}
			defer chaosMu.Unlock()
			// This scenario is about losing the cache, not the backend:
			// recover to a closed breaker so both queries reach the model
			// and the answers-match assertion has teeth.
			if err := clearFaultsAndRecover(ctx, c); err != nil {
				return err
			}
			q := chaosQuestion()
			var first api.QueryResponse
			_, err := c.PostJSON(ctx, "/query", api.QueryRequest{Question: q}, &first)
			if errors.Is(err, ErrShed) {
				return nil
			}
			if err != nil {
				return err
			}
			state, err := c.SetFaults(ctx, api.FaultControlRequest{PurgeLLMCache: true})
			if err != nil {
				return err
			}
			// An undegraded answer went through the model, so the purge must
			// have found its cache entries.
			if !first.Degraded && state.PurgedCacheEntries == 0 {
				return fmt.Errorf("purge after an uncached query dropped 0 entries")
			}
			var second api.QueryResponse
			_, err = c.PostJSON(ctx, "/query", api.QueryRequest{Question: q}, &second)
			if errors.Is(err, ErrShed) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("re-query after cache purge failed: %w", err)
			}
			// The sim backend is deterministic: when neither run degraded
			// (the breaker can still be recovering from an earlier chaos
			// execution), cache loss must not change the answer.
			if !first.Degraded && !second.Degraded && first.Answer != second.Answer {
				return fmt.Errorf("answer changed across a cache purge: %q → %q", first.Answer, second.Answer)
			}
			return nil
		},
		Verify: clearFaultsAndRecover,
	})

	Register(Scenario{
		Name:        "chaos-ingest-saturation",
		Description: "Ingests a corpus while pipeline-stage faults and latency are injected, accepting success, queue-full sheds, or jobs failed cleanly as unavailable — and checks queries still serve alongside",
		Paper:       "robustness: ingest-path fault hooks + stage retries with backoff",
		Setup:       requireFaults,
		Execute: func(ctx context.Context, c *Client) error {
			if !chaosMu.TryLock() {
				return nil // another execution is scripting faults; skip
			}
			defer chaosMu.Unlock()
			if _, err := c.SetFaults(ctx, api.FaultControlRequest{Spec: &fault.Spec{
				Seed:        17,
				OpErrorRate: 0.25,
				OpLatencyMS: 2,
			}}); err != nil {
				return err
			}
			seed := 50_000 + chaosSeq.Add(1)
			// Saturated-ingest outcomes: landed (done), shed by the full job
			// queue (429), or cleanly refused after stage retries exhausted
			// (failed with the 503-class "unavailable" code). Any other
			// failure is the bug.
			job, err := c.Ingest(ctx, api.IngestRequest{Docs: c.Params.IngestDocs, Seed: seed})
			if err != nil && !errors.Is(err, ErrShed) {
				return err
			}
			if job != nil && job.State == api.JobFailed && job.Error.Code != api.CodeUnavailable {
				return fmt.Errorf("saturated ingest job %s failed as %s, want done or unavailable: %s",
					job.JobID, job.Error.Code, job.Error.Message)
			}
			// Query traffic must keep serving while ingest churns.
			var out api.QueryResponse
			_, err = c.PostJSON(ctx, "/query", api.QueryRequest{Question: chaosQuestion()}, &out)
			if errors.Is(err, ErrShed) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("query during saturated ingest failed: %w", err)
			}
			if out.Answer == "" {
				return fmt.Errorf("query during saturated ingest served an empty answer")
			}
			_, err = c.SetFaults(ctx, api.FaultControlRequest{Clear: true})
			return err
		},
		Verify: func(ctx context.Context, c *Client) error {
			n, err := storeDocs(ctx, c)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("no documents in the store after saturated ingest runs")
			}
			return clearFaultsAndRecover(ctx, c)
		},
	})
}
