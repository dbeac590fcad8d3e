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
// fixpoint by one driver — §6.1's optimizer "uses a combination of
// rule-based and cost-based" rewrites; here every rule is rule-based, and
// the cost estimate is printed, not consulted. Rewrite applies the exact
// rules (every plan gets them), Optimize the whole list: those plus the
// one approximate rule, the scoped extract. (A filter needs no rule to read
// less: llmFilter always reads only the sections its question is about.)
// One record, PlanPreview, carries every form of the plan (original,
// rewritten, optimized, cost estimates, compiled pipeline); Service
// builds it in one step for PlanOnly, InspectPlan, Ask and RunPlan, and a
// Result embeds it.
//
// Planning is one model call per question (§6.1), follow-ups included: a
// Conversation keeps only history, and sends a follow-up to the planner
// with the previous turn's plan. The Planner keeps the plans it validated:
// a repeated question gets a copy of its plan with no model call, no parse
// and no validation, even after per-document traffic has pushed the
// planning answer out of the LLM response cache. The memo is keyed by the
// content address of the planning request (llm.Key), which carries the
// schema and a follow-up's previous plan, so a changed schema or previous
// plan is planned afresh; a plan that failed validation is never kept, one
// the repair loop fixed is. It holds at most planMemoSize plans (a full
// memo starts over) and lives as long as its planner: core.System.Prepare
// builds a new one after every ingest, and the purge_llm_cache chaos hook
// (Planner.Forget) empties it.
//
// Concurrency: Service and Executor are stateless per query and safe for
// concurrent Ask/RunPlan calls; the Planner's memo is behind a mutex. Each Run opens a query-scoped worker
// budget (docset.Context.QueryScope) and starts the plan's independent
// branches — join build sides, shared diamond prefixes — as concurrent
// docset.Tasks under it; output remains byte-identical to serial
// execution. Conversation serializes its turns behind an internal mutex
// so one session's follow-ups cannot interleave. LogicalPlan values are
// not synchronized: clone before sharing a plan across goroutines that
// edit it.
package luna
