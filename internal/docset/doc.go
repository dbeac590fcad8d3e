// Package docset implements Sycamore's core abstraction (§5): DocSets —
// reliable, lazily-evaluated collections of hierarchical documents — and
// the structured and semantic operators of Table 2. Transform chains
// build a logical plan; ExecuteStream runs it as a pipelined dataflow with
// bounded parallelism, per-call retries, deterministic output ordering,
// and a full per-operator lineage trace, handing batches of arriving
// documents to an optional sink on the collecting goroutine (a slow sink
// is the pipeline's back-pressure). Execute is ExecuteStream with no sink.
// LLMFilter is one stage (llmFilters in semantic.go): any number of
// questions, each document sent to the model at most once and asked only
// what the response cache lacks (llm.FilterGroup).
//
// A filter question is sent the document's TextContent, which carries no
// page furniture (docmodel.Document.TextContent), less every section
// holding none of its terms outside rows the model reads as negatives
// ("Aircraft Fire: None"); the preamble stays, and a document with fewer
// than two sections or no ID goes whole (filterGroup).
// Every sentence that mentions the question stays, so the verdict is the
// whole document's (core.TestScopedFilterVerdicts): unlike
// LLMExtractScoped, this scope is not an optimizer choice.
//
// Chunking is one map stage, MergeChunks: a document's non-furniture
// elements, in reading order, are cut into passages of at most N tokens,
// numbered within the document ("<id>#m1", …). So ingest chunks, embeds
// and stores each report as it arrives, and never holds the upload's
// chunks at once.
//
// Paper counterpart: Sycamore, the DocSet ETL/analytics engine of §5.
//
// Concurrency: DocSets are immutable plans — every transform returns a
// new value, so building and executing DocSets from many goroutines is
// safe. Execute bounds two resources per map stage. Busy workers: up to
// Context.Parallelism goroutines compute on documents at once. Outstanding
// model calls: a stage that calls the model per document (llmExtract,
// llmFilter, llmCombine) keeps a fixed window of 128
// documents in flight (sixteen of the batcher's groups, which the stage
// forms from its own cache misses: llm.BatchScope), so a stage over a
// 100-report corpus sends all its groups in one wave, each computing
// only under one of Parallelism worker slots and giving the slot back for
// the round trip, so its model latency overlaps while its CPU footprint
// stays Parallelism. Output order is made deterministic by hierarchical
// sequence numbers, so results are byte-identical at any parallelism.
// Independent subtrees wrap as Tasks (schedule.go): a Task executes at
// most once no matter how many consumers race to demand it, retains its
// output, and replays it to all of them — the one handoff between
// pipelines. A query-scoped Context (QueryScope) adds a
// worker budget — a work-conserving semaphore over busy workers shared by
// every pipeline of one query — so concurrent branches and model windows
// never multiply the query's worker footprint. Time a document spends
// queued for a slot after its model call returned is kept out of the
// stage's busy time. Traces attribute LLM calls to the dispatching stage
// exactly once.
package docset
