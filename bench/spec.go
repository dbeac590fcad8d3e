package main

import (
	"encoding/json"
	"slices"
)

// metricSpec names one metric, its unit and which direction is better.
// Bound is the share of the parent's median by which the metric may get
// worse before a change counts as a regression. The driver applies the
// bounds of the end-to-end metrics; -compare also applies those of the
// load metrics; the other per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// tailPercentile is the tail the loaded window reports latencies at
// (load.*_p90_ms). The smallest sample a 15 s window gathers is the ≈ 160
// JSON (and as many streamed) requests of analytics-cold; 0.9 is the
// highest of the usual percentiles that leaves ten samples beyond it there
// (supportedPercentile), and one fixed tail keeps rows comparable.
const tailPercentile = 0.9

// windowSeconds is the timed window the driver asks for (run_seconds).
const windowSeconds = 15

// endToEnd lists what the driver gates: what a user of the system pays and
// gets, measured with tracing off, in numbers that repeat from run to run.
// Every workload reports every one of them. No wall-clock timing of the
// window is here. On the shared two-core box the benchmark runs on, runs
// of the same code spread by 9-16% in every latency and rate (20-30% where
// the driver measured), for every statistic and window length tried, and
// a metric that cannot be made to repeat within a tenth is demoted, not
// left gated: they are the load metrics below. setup_s stays: it is fixed
// work through the whole path (generate, ingest, a cold pass of questions,
// a warm pass of the script) and the one timing the driver does not hold
// to its spread.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"cold_tokens_per_query", "tokens", "lower", 0.03},
	{"answer_quality", "ratio", "higher", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// loadSpecs are the latencies and rates the clients see in the window, and
// what the window left on the heap. The timed run measures them with
// tracing off and -compare judges them by these bounds (a tenth; a row
// whose runs spread wider reads "unresolved"). The traced run reports them
// from a window of its own, as the last of the per-layer metrics.
var loadSpecs = []metricSpec{
	{"load.query_item_p50_ms", "ms", "lower", 0.10},
	{"load.query_p90_ms", "ms", "lower", 0.10},
	{"load.query_per_s", "1/s", "higher", 0.10},
	{"load.stream_ttfe_item_p50_ms", "ms", "lower", 0.10},
	{"load.stream_ttfe_p90_ms", "ms", "lower", 0.10},
	{"load.ingest_docs_per_s", "1/s", "higher", 0.10},
	{"load.heap_growth_mb", "MB", "lower", 0.10},
}

// timedSpecs is what a timed run measures and prints.
var timedSpecs = slices.Concat(endToEnd, loadSpecs)

// perLayer lists the metrics of single layers, read from the traced run
// and from the program's public counters, and then the load metrics.
var perLayer = append([]metricSpec{
	{"server.overhead_p50_us", "us", "lower", 0},
	{"server.response_bytes_per_query", "bytes", "lower", 0},
	{"server.plan_p50_ms", "ms", "lower", 0},
	{"server.chat_turn_p50_ms", "ms", "lower", 0},
	{"server.sse_events_per_stream", "count", "lower", 0},
	{"server.stream_total_p50_ms", "ms", "lower", 0},
	{"server.shed_requests", "count", "lower", 0},
	{"server.server_errors", "count", "lower", 0},

	{"luna.parse_us", "us", "lower", 0},
	{"luna.validate_us", "us", "lower", 0},
	{"luna.inspect_us", "us", "lower", 0},
	{"luna.planonly_warm_us", "us", "lower", 0},
	{"luna.planonly_cold_ms", "ms", "lower", 0},
	{"luna.exec_wall_ms", "ms", "lower", 0},
	{"luna.plan_nodes", "count", "lower", 0},
	{"luna.exec_branches", "count", "lower", 0},

	{"cost.store_entries", "count", "higher", 0},
	{"cost.store_hit_ratio", "ratio", "higher", 0},
	{"cost.est_over_observed_llm_calls", "ratio", "lower", 0},

	{"docset.llm_calls_per_query", "count", "lower", 0},
	{"docset.docs_in_per_query", "count", "lower", 0},
	{"docset.busy_ms_per_query", "ms", "lower", 0},
	{"docset.parallel_ratio", "ratio", "higher", 0},
	{"docset.llm_busy_share", "ratio", "lower", 0},
	{"docset.cascade_escalation_ratio", "ratio", "lower", 0},
	{"docset.retries", "count", "lower", 0},
	{"docset.backoff_ms", "ms", "lower", 0},
	{"docset.first_out_ms_p50", "ms", "lower", 0},

	{"llm.cache_hit_ratio", "ratio", "higher", 0},
	{"llm.requests_per_query", "count", "lower", 0},
	{"llm.dispatches_per_query", "count", "lower", 0},
	{"llm.tokens_per_query", "tokens", "lower", 0},
	{"llm.mean_batch_size", "count", "higher", 0},
	{"llm.linger_flush_ratio", "ratio", "lower", 0},
	{"llm.flight_shared_per_query", "count", "higher", 0},
	{"llm.miss_overhead_us", "us", "lower", 0},
	{"llm.backend_ms_computed", "ms", "lower", 0},
	{"llm.hit_us", "us", "lower", 0},

	{"resilience.retries", "count", "lower", 0},
	{"resilience.breaker_opens", "count", "lower", 0},

	{"index.vector_search_us", "us", "lower", 0},
	{"index.bm25_search_us", "us", "lower", 0},
	{"index.hybrid_search_us", "us", "lower", 0},
	{"index.filter_scan_us", "us", "lower", 0},
	{"index.put_chunk_us", "us", "lower", 0},
	{"index.search_during_write_p95_us", "us", "lower", 0},
	{"index.docs", "count", "higher", 0},
	{"index.chunks", "count", "higher", 0},

	{"embed.query_embed_us", "us", "lower", 0},
	{"embed.chunk_embed_us", "us", "lower", 0},

	{"docparse.partition_ms_per_doc", "ms", "lower", 0},

	{"core.ingest_ms_per_doc", "ms", "lower", 0},
	{"core.ingest_dispatches", "count", "lower", 0},
	{"core.prepare_ms", "ms", "lower", 0},

	{"rag.answer_ms", "ms", "lower", 0},

	{"qa.correct", "count", "higher", 0},
	{"retrieval.recall_at_10", "ratio", "higher", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.index_embed_self_share", "ratio", "lower", 0},
}, loadSpecs...)

// benchmarkJSON renders the root BENCHMARK.json from the tables above and
// the workload list, so the file and the program cannot drift apart
// (TestBenchmarkJSONMatchesSpec compares them).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: windowSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(out, '\n')
}
