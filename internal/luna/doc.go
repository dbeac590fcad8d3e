// Package luna implements the paper's natural-language query service
// (§6): a planner that turns questions into DAGs of logical operators, a
// validator, one ordered list of rewrite rules, a compiler that lowers
// logical plans onto Sycamore DocSet pipelines, and an executor that schedules
// independent plan branches concurrently and reports per-node runtime
// (EXPLAIN ANALYZE) with full lineage traces.
//
// Paper counterpart: Luna, the query planning/execution service of §6.
//
// A plan has one form — the DAG {"nodes": [...], "output": ...}, in
// memory and on the wire — and runs one way: Service.Ask and
// Service.RunPlan share one body ending in Executor.Run. Watching a query
// run (partial result batches, live traces) is the same call with
// StreamHooks set on a per-request copy of the Service.
//
// It is rewritten one way too: the rule list in rewrite.go, run to a
// fixpoint by one driver — §6.1's optimizer that "uses a combination of
// rule-based and cost-based" rewrites. Rewrite applies the exact rules
// (every plan gets them), Optimize the whole list: those plus the two
// approximate rules, the proxy cascade and the scoped extract.
// One record, PlanPreview, carries every form of the plan (original,
// rewritten, optimized, cost estimates, compiled pipeline); Service
// builds it in one step for PlanOnly, InspectPlan, Ask and RunPlan, and a
// Result embeds it.
//
// Concurrency: Service and Executor are stateless per query and safe for
// concurrent Ask/RunPlan calls. Each Run opens a query-scoped worker
// budget (docset.Context.QueryScope) and starts the plan's independent
// branches — join build sides, shared diamond prefixes — as concurrent
// docset.Tasks under it; output remains byte-identical to serial
// execution. Conversation serializes its turns behind an internal mutex
// so one session's follow-ups cannot interleave. LogicalPlan values are
// not synchronized: clone before sharing a plan across goroutines that
// edit it.
package luna
