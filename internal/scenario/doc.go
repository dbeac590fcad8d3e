// Package scenario is the end-to-end scenario harness for the serving
// layer: named, self-describing workloads driven over HTTP against a live
// arynd (or an httptest server in the suite tests).
//
// Each Scenario carries a Name, a Description, and the Paper section it
// exercises, plus three stages:
//
//   - Setup prepares server state the scenario needs (e.g. ensures a
//     corpus is ingested). It runs once per scenario per load run.
//   - Execute performs one unit of the workload — the thing a load
//     generator repeats. Every HTTP request it issues is recorded (status,
//     latency, shed) through the Client's Recorder.
//   - Verify asserts the end-state contract after a run (e.g. documents
//     really landed, counters moved). It runs once, after load stops.
//
// The built-in scenarios (see builtin.go) cover
// multi-corpus ingest, plan→edit→re-execute round-trips, EXPLAIN ANALYZE,
// long conversational sessions with TTL expiry, and overload/429-shed
// behavior — the serving-layer counterparts of the paper's §3 platform,
// §4–5 ETL, and §6 Luna claims.
//
// On top of the registry, Mix + RunLoad run scenarios concurrently: a Mix
// names a weighted blend of scenarios; RunLoad runs a fixed number of
// executions drawn from it on a bounded worker pool and counts
// executions and requests, shed and failed, into a Report. The load tests
// hold every mix, and the fault-injecting ChaosMix, to zero failed
// requests under -race. Timing is not this package's business: latency,
// throughput and cost are measured by the bench/ module alone.
//
// Concurrency: a Client is safe for concurrent use; RunLoad runs
// executions on its own worker goroutines. Scenario Execute funcs must be
// safe to run concurrently with themselves and each other — any cross-
// execution state they keep (question rotation, corpus naming) is atomic.
package scenario
