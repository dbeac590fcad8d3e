// Package fault is a deterministic, seeded fault injector for chaos
// testing the serving stack. It wraps the backing model as llm.Client
// middleware (injected at the backend boundary, beneath cache, breaker,
// and batcher) and hooks the docset ingest/query operator paths, so
// tests can script backend failure without touching production code
// paths.
//
// A Spec describes the faults to inject: transient/permanent error
// rates, latency spikes, truncated responses, Retry-After hints, and
// scripted outage windows ("backend dead from t=2s to t=5s", measured
// from spec activation). Specs are JSON (see docs/fault-injection.md for
// runnable examples) and swappable at runtime: arynd activates one at
// boot via -fault-spec and exposes the dev-only /faults endpoint so
// chaos tests can flip faults mid-run.
//
// Determinism: all randomness flows from the spec's seed through one
// guarded rand stream, so a single-threaded caller replays the same
// fault sequence for the same seed. Concurrent callers share the stream
// (scheduling order decides who draws what), which is the right trade
// for a chaos harness: individual runs stay seeded and reportable while
// concurrency itself provides the adversarial interleavings.
//
// Concurrency: Injector is safe for concurrent use; Set swaps the active
// spec atomically with respect to in-flight fate draws.
package fault
