// Package llm defines the language-model abstraction Sycamore's semantic
// operators and Luna's planner are built on, the call middleware stack
// (content-addressed cache, singleflight, batching), and Sim — a
// deterministic, heuristic stand-in for GPT-4o-class models.
//
// The paper's results depend on the *system behaviour* of LLMs, not their
// raw intelligence: bounded context windows, lossy attention over long
// prompts, over-generous filters, boilerplate-driven refusals, and
// reliable narrow-task performance when queries are decomposed (§2
// tenets, §7.2 failure analysis). Sim reproduces those mechanisms with
// seeded determinism so every experiment regenerates identically. Its
// parameters are fixed, one per behaviour:
//
//   - an 8,192-token context window: a longer prompt is truncated, and the
//     model never sees past the cut (bounded context windows, §2);
//   - a filter leniency of 0.85: a document where only one of the
//     question's concepts appears still passes with that probability
//     ("the LLM filter ... tends to pass through documents where an engine
//     problem was not indicated", §7.2);
//   - 30 attended items: an aggregate RAG answer counts over the first 30
//     context chunks only (lost in the middle, §7.2);
//   - a refusal ratio of 0.08: a fault-adjacent question is refused once
//     that share of the context chunks carries liability boilerplate
//     (context poisoning, §7.2).
//
// Only its seed and its round-trip latency (WithLatency) are set per
// instance. Sim never fails on its own: backend failures — errors, latency
// spikes, outages, truncated replies — come from internal/fault, the one
// failure injector, which wraps whatever model sits beneath the stack.
//
// Sim is a test double that answers on the caller's CPU, so it times
// itself: Busy, which a Stack over it reports as StackStats.SimBusy, is the
// wall time it spent answering, summed over dispatches, its modelled round
// trips left out — the work a hosted model does elsewhere, to be read
// apart from the system's. Its skills read prompts with byte scanners
// (scan.go), each held to the regular expression it replaced, and draw
// per-request coins from internal/randsrc, seeded only when drawn.
//
// The middleware's unit of storage is the fact and its unit of dispatch is
// the document. A Group is k requests about one document — the k
// questions of a fused llmFilter. Cache.CompleteGroup answers each member
// under its own content address (hit, joined flight, or led), and sends
// the members nobody has asked for upstream as ONE request: the member's
// own when one is missing, the group's packed prompt otherwise, whose
// reply it splits back into one resident entry per member. No entry is
// ever keyed by a packed prompt, so grouped and solo callers, and cache
// files of any age, share answers. Complete is the group of one; Stack
// and docset's per-stage tracer pass groups through (GroupClient);
// the resilience layer, the batcher and the backend see one ordinary
// request. The packed filter prompt and the independence assumption it
// rests on — a model answers each question of a packed prompt as it would
// alone — are stated in prompts.go.
//
// A filter prompt names its document on a DOCUMENT-ID line; Sim seeds the
// coin that settles a weak filter match from the question and that line,
// so a document gets one verdict sent whole, scoped or packed.
//
// Paper counterpart: the GPT-4o calls made by Sycamore transforms and the
// Luna planner (§5.2, §6.1).
//
// Concurrency: every Client in this package (Sim, Stack and its
// middleware layers, Scripted) is safe for concurrent Complete calls;
// pipeline workers, concurrent queries, and the serving layer all share
// one client chain. Singleflight collapses concurrent identical callers;
// the batcher groups the misses of each pipeline stage (batch.go).
package llm
