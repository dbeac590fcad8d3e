// Package server is the concurrent query-serving layer: it exposes a
// wired core.System over HTTP so many analysts hit one Aryn instance at
// once — the service shape of the paper (§3, Figure 1), where DocParse
// and Luna run behind network endpoints rather than a library call.
//
// Endpoints — one route table (Server.routes), mounted under /v1 and
// nowhere else:
//
//	POST /v1/ingest     submit an ingest job (raw blobs or a generated
//	                    NTSB corpus): 202 + a job handle
//	GET  /v1/jobs/{id}  poll (JSON) or follow (SSE) an ingest job
//	POST /v1/plan       plan a question (or dry-run an edited plan)
//	                    without executing; {"analyze": true} executes and
//	                    returns the plan annotated with per-node runtime
//	                    (EXPLAIN ANALYZE)
//	POST /v1/query      one-shot Luna question or a user-edited plan (or
//	                    the RAG baseline); JSON, or SSE by content
//	                    negotiation
//	POST /v1/chat       stateful conversational session with follow-ups
//	GET  /v1/stats      LLM middleware counters, index size, serving stats
//	GET  /v1/healthz    liveness + readiness (never gated by admission)
//	     /v1/faults     dev-only fault-injection control (Config.Fault)
//
// Plans are first-class citizens (§6.2 inspect→edit→re-run): POST
// /v1/plan returns the validated DAG plan JSON plus the rule list's
// rewrite and the compiled physical pipeline; the client may edit the
// JSON and submit it back through POST /v1/query {"plan": ...} for
// execution. Executed queries report per-node runtime metrics under
// "executed". Every error is one {"error": {"code", "message",
// "details"}} envelope; an invalid plan is a 400 whose details list every
// node-level problem. See docs/plan-api.md for the full lifecycle with
// curl examples and docs/streaming-api.md for streams, jobs and errors.
//
// Paper counterpart: the deployed Aryn service of §3 (Figure 1).
//
// Concurrency: every work request passes a bounded admission gate
// (MaxInFlight executing, MaxWaiters queued, beyond that 429 +
// Retry-After); chat sessions are isolated conversations whose turns
// serialize internally; ingest is exclusive per run (only the single job
// worker starts one) and never blocks queries — but it indexes into the shared store incrementally, so a
// query racing an ingest may observe a partially loaded corpus (what is
// swapped atomically at the end is the schema + query service, not the
// document set). Each admitted query additionally runs under its own
// Luna worker budget, so a plan with many concurrent branches draws the
// same per-query worker footprint as a chain.
package server
