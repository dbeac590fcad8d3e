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
// seeded determinism so every experiment regenerates identically.
//
// The middleware's unit of storage is the fact and its unit of dispatch is
// the document. A Group is k requests about one document — the k
// questions of a fused llmFilter. Cache.CompleteGroup answers each member
// under its own content address (hit, joined flight, or led), and sends
// the members nobody has asked for upstream as ONE request: the member's
// own when one is missing, the group's packed prompt otherwise, whose
// reply it splits back into one resident entry per member. No entry is
// ever keyed by a packed prompt, so grouped and solo callers, and cache
// files of any age, share answers. Complete is the group of one; Meter,
// Stack and docset's per-stage tracer pass groups through (GroupClient);
// the resilience layer, the batcher and the backend see one ordinary
// request. The packed filter prompt and the independence assumption it
// rests on — a model answers each question of a packed prompt as it would
// alone — are stated in prompts.go.
//
// Paper counterpart: the GPT-4o calls made by Sycamore transforms and the
// Luna planner (§5.2, §6.1).
//
// Concurrency: every Client in this package (Sim, Meter, Stack and its
// middleware layers, Scripted) is safe for concurrent Complete calls;
// pipeline workers, concurrent queries, and the serving layer all share
// one client chain. The singleflight and batching layers exist precisely
// to exploit concurrent callers.
package llm
