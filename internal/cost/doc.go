// Package cost implements the cost model behind Luna's plan estimates (the
// figures /v1/plan prints; no rewrite rule consults them): per-operator
// default estimates (selectivity, relative unit costs) refined by a
// persistent feedback store that accumulates the document counts and
// model calls EXPLAIN ANALYZE observes after every executed query. ZenDB and UQE both argue that an LLM query
// engine must learn operator costs from its own runs — LLM spend
// dominates so thoroughly that even coarse observed selectivities beat
// static guesses; this package is that loop's memory.
//
// The package deliberately knows nothing of plans (of the rest of the tree
// it imports only the state-file writer): luna owns the plan DAG and walks
// it, asking this package for per-operator numbers keyed by stable
// signature strings.
//
// Concurrency: Store is safe for concurrent Observe/Lookup/Selectivity/
// Stats from any number of query goroutines (one mutex; operations are
// O(1)).
package cost
