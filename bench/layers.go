package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/luna"
)

// The traced run: one serial client, after and apart from the timed
// window. It records a span around every call the harness makes into a
// layer (the HTTP round trip, then in-process replays of the same item
// through luna, with the plan nodes' busy windows as children, then direct
// probes of index and embed with the item's own query) and reads the
// per-layer metrics off those spans and off the program's public counters.
// Spans inside the program are a later change; until then a layer's time
// is what its entry points take when called alone.

// traced collects what the passes measured beside the spans.
type traced struct {
	p  *prepared
	tr *tracer

	// Per script item, across passes.
	httpWall map[int][]float64 // µs, JSON /v1/query only
	askWall  map[int][]float64 // µs, in-process Ask/RunPlan

	queryBytes  []float64
	planMS      []float64
	chatTurnMS  []float64
	streamMS    []float64
	streamEvts  []float64
	parseUS     []float64
	validateUS  []float64
	inspectUS   []float64
	planOnlyUS  []float64
	execWallMS  []float64
	planNodes   []float64
	branches    []float64
	firstOutMS  []float64
	ragMS       []float64
	embedUS     []float64
	vectorUS    []float64
	bm25US      []float64
	filterUS    []float64
	estCalls    float64
	nodeCalls   float64
	docsIn      float64
	busyMS      float64
	llmBusyMS   float64
	retries     float64
	backoffMS   float64
	escalations float64
	screened    float64
	asks        int

	problems []string
}

func (t *traced) problem(format string, args ...any) {
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// httpPass sends every script item once over HTTP, in script order, with
// the same JSON/SSE alternation as a window client on its visit-th walk.
// With a tracer each exchange is a server.request span.
func (t *traced) httpPass(ctx context.Context, c *client, tr *tracer, pass, visit int, session *string) (queryMS []float64) {
	p := t.p
	for i := range p.script {
		it := &p.script[i]
		sse := it.kind == kindQuery && p.w.streamed(i, visit)
		start := time.Now()
		out := execItem(ctx, c, it, sse, session)
		tr.add("server.request", requestID(it, pass), 0, start, start.Add(out.wall))
		if out.err != nil {
			t.problem("%s: %v", it.label, out.err)
			continue
		}
		if tr == nil {
			if it.kind == kindQuery && !sse {
				queryMS = append(queryMS, ms(out.wall))
			}
			continue
		}
		switch {
		case it.kind == kindPlan:
			t.planMS = append(t.planMS, ms(out.wall))
		case it.kind == kindChat:
			t.chatTurnMS = append(t.chatTurnMS, ms(out.wall)/float64(out.requests))
		case sse:
			t.streamMS = append(t.streamMS, ms(out.wall))
			t.streamEvts = append(t.streamEvts, float64(out.events))
		default:
			queryMS = append(queryMS, ms(out.wall))
			t.httpWall[i] = append(t.httpWall[i], us(out.wall))
			t.queryBytes = append(t.queryBytes, float64(out.bytes))
		}
	}
	return queryMS
}

func requestID(it *item, pass int) string { return fmt.Sprintf("%s#%d", it.label, pass) }

// replayPass walks the script again in process: what the handler would
// call, one layer entry point at a time, each in its own span.
func (t *traced) replayPass(ctx context.Context, pass int) {
	p, tr := t.p, t.tr
	sys := p.h.sys
	for i := range p.script {
		it := &p.script[i]
		req := requestID(it, pass)
		svc := sys.QueryService()
		if it.rag {
			d := tr.time("rag.answer", req, func() {
				if _, err := sys.AskRAG(ctx, it.question); err != nil {
					t.problem("%s: rag: %v", it.label, err)
				}
			})
			t.ragMS = append(t.ragMS, ms(d))
			t.probeRoots(req, []planNodeShape{{Op: "rag", Query: it.question, K: 100}})
			continue
		}

		// The plan the rest of the replay works on: the submitted one, or
		// the one the (by now cached) planning call makes of the question.
		planJSON := string(it.plan)
		if it.plan == nil {
			var pv *luna.PlanPreview
			var err error
			d := tr.time("luna.planonly", req, func() { pv, err = svc.PlanOnly(ctx, it.question) })
			if err != nil {
				t.problem("%s: PlanOnly: %v", it.label, err)
				continue
			}
			t.planOnlyUS = append(t.planOnlyUS, us(d))
			planJSON = pv.Plan.JSON()
		}
		var plan *luna.LogicalPlan
		var err error
		d := tr.time("luna.parse", req, func() { plan, err = luna.ParsePlan(planJSON) })
		if err != nil {
			t.problem("%s: ParsePlan: %v", it.label, err)
			continue
		}
		t.parseUS = append(t.parseUS, us(d))
		d = tr.time("luna.validate", req, func() { err = luna.Validate(plan, svc.Planner.Schema) })
		if err != nil {
			t.problem("%s: Validate: %v", it.label, err)
			continue
		}
		t.validateUS = append(t.validateUS, us(d))
		var pv *luna.PlanPreview
		d = tr.time("luna.inspect", req, func() { pv, err = svc.InspectPlan(plan) })
		if err != nil {
			t.problem("%s: InspectPlan: %v", it.label, err)
			continue
		}
		t.inspectUS = append(t.inspectUS, us(d))
		if it.kind == kindPlan {
			continue // a /v1/plan item executes nothing
		}

		var res *luna.Result
		start := time.Now()
		if it.plan != nil {
			res, err = svc.RunPlan(ctx, it.label, plan)
		} else {
			res, err = svc.Ask(ctx, it.question)
		}
		end := time.Now()
		if err != nil || res.Exec == nil {
			t.problem("%s: in-process execution: %v", it.label, err)
			continue
		}
		ask := tr.add("luna.ask", req, 0, start, end)
		if it.kind == kindQuery {
			t.askWall[i] = append(t.askWall[i], us(end.Sub(start)))
		}
		t.readExec(req, ask, end, res)

		executed := pv.Rewritten
		if pv.Optimized != nil {
			executed = pv.Optimized
		}
		shape, err := parseShape([]byte(executed.JSON()))
		if err != nil {
			t.problem("%s: %v", it.label, err)
			continue
		}
		t.planNodes = append(t.planNodes, float64(len(shape.Nodes)))
		t.probeRoots(req, shape.Nodes)
	}
}

// readExec turns the result's per-node runtime (existing public output of
// EXPLAIN ANALYZE, not new tracing) into docset.node.<op> child spans of
// the luna.ask span, and adds the node counters up.
func (t *traced) readExec(req string, ask int, end time.Time, res *luna.Result) {
	exec := res.Exec
	t.asks++
	t.execWallMS = append(t.execWallMS, exec.WallMS)
	t.branches = append(t.branches, float64(exec.Branches))
	// Execution is the last phase of Ask, so it began WallMS before the end.
	execStart := end.Add(-time.Duration(exec.WallMS * float64(time.Millisecond)))
	at := func(offsetMS float64) time.Time {
		return execStart.Add(time.Duration(offsetMS * float64(time.Millisecond)))
	}
	for _, n := range exec.Nodes {
		r := n.Runtime
		t.tr.add("docset.node."+n.Op, req, ask, at(r.StartMS), at(r.EndMS))
		t.nodeCalls += float64(r.LLMCalls)
		t.docsIn += float64(r.DocsIn)
		t.busyMS += r.BusyMS
		if r.LLMCalls > 0 {
			t.llmBusyMS += r.BusyMS
		}
		t.retries += float64(r.Retries)
		t.backoffMS += r.BackoffMS
		t.escalations += float64(r.Escalations)
		t.screened += float64(r.Escalations + r.ProxyKept + r.ProxyDropped)
	}
	if n := len(exec.Nodes); n > 0 && exec.Nodes[n-1].Runtime.FirstOutMS > 0 {
		t.firstOutMS = append(t.firstOutMS, exec.Nodes[n-1].Runtime.FirstOutMS)
	}
	est := res.Cost
	if res.CostOptimized != nil {
		est = res.CostOptimized
	}
	if est != nil {
		t.estCalls += est.LLMCalls
	}
}

// probeRoots repeats, directly on the store and the embedder, the
// retrieval each root of the item's plan performs: the index and embed
// layers' share of this request, measured where the work happens.
func (t *traced) probeRoots(req string, nodes []planNodeShape) {
	sys := t.p.h.sys
	for _, n := range nodes {
		switch {
		case n.Op == "queryVectorDatabase" || n.Op == "rag":
			var vec []float32
			d := t.tr.time("embed.query_embed", req, func() { vec = sys.Embedder.Embed(n.Query) })
			t.embedUS = append(t.embedUS, us(d))
			d = t.tr.time("index.vector_search", req, func() {
				if n.Op == "rag" {
					sys.Store.SearchChunks(index.Query{Vector: vec, K: n.K})
				} else {
					sys.Store.SearchDocs(index.Query{Vector: vec, K: n.K})
				}
			})
			t.vectorUS = append(t.vectorUS, us(d))
		case n.Op == "queryDatabase" && n.Keyword != "":
			q := index.Query{Keyword: n.Keyword, Filter: predicateOf(n)}
			d := t.tr.time("index.bm25_search", req, func() { sys.Store.SearchDocs(q) })
			t.bm25US = append(t.bm25US, us(d))
		case n.Op == "queryDatabase":
			q := index.Query{Filter: predicateOf(n)}
			d := t.tr.time("index.filter_scan", req, func() { sys.Store.SearchDocs(q) })
			t.filterUS = append(t.filterUS, us(d))
		}
	}
}

// predicateOf lowers a plan node's property filters as the executor does.
func predicateOf(n planNodeShape) index.Predicate {
	if len(n.Filters) == 0 {
		return index.MatchAll()
	}
	var preds []index.Predicate
	for _, f := range n.Filters {
		num, _ := f.Value.(float64)
		switch f.Kind {
		case "term":
			preds = append(preds, index.Term(f.Field, f.Value))
		case "contains":
			preds = append(preds, index.Contains(f.Field, fmt.Sprint(f.Value)))
		case "gte":
			preds = append(preds, index.Range(f.Field, &num, nil))
		case "lte":
			preds = append(preds, index.Range(f.Field, nil, &num))
		}
	}
	return index.And(preds...)
}

// timeEach runs fn n times and returns each run's microseconds.
func timeEach(tr *tracer, name string, n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = us(tr.time(name, "probe", func() { fn(i) }))
	}
	return out
}

// probes measures the layer entry points no script item isolates: the
// model middleware's hit and miss paths, a cold planning call, hybrid
// search, index writes alone and beside searches, chunk embedding,
// DocParse, and Prepare.
func (t *traced) probes(ctx context.Context, seed int64, set func(string, float64, int)) {
	p, tr := t.p, t.tr
	sys := p.h.sys
	rng := rand.New(rand.NewSource(seed))

	// llm: one resident key asked again and again, then keys never seen.
	resident := llm.Request{Prompt: fmt.Sprintf("bench probe %d resident", seed)}
	complete := func(req llm.Request) {
		if _, err := sys.LLM.Complete(ctx, req); err != nil {
			t.problem("llm probe: %v", err)
		}
	}
	complete(resident)
	hits := timeEach(tr, "llm.hit", 200, func(int) { complete(resident) })
	set("llm.hit_us", median(hits), len(hits))
	misses := timeEach(tr, "llm.miss", 20, func(i int) {
		complete(llm.Request{Prompt: fmt.Sprintf("bench probe %d miss %d", seed, i)})
	})
	set("llm.miss_overhead_us", median(misses)-us(simLatency), len(misses))

	// luna: a question never planned before pays the planning call.
	cold := timeEach(tr, "luna.planonly_cold", 10, func(i int) {
		q := fmt.Sprintf("Find reports about probe topic %d-%d", seed, i)
		if _, err := sys.QueryService().PlanOnly(ctx, q); err != nil {
			t.problem("cold PlanOnly: %v", err)
		}
	})
	set("luna.planonly_cold_ms", median(cold)/1000, len(cold))

	// index: keyword and vector together, with topics the seed picks.
	hybridQueries := make([]index.Query, 32)
	for i := range hybridQueries {
		topic := topicEvents[rng.Intn(len(topicEvents))] + " " + topicContexts[rng.Intn(len(topicContexts))]
		hybridQueries[i] = index.Query{
			Keyword: topicKeywords[rng.Intn(len(topicKeywords))],
			Vector:  sys.Embedder.Embed(topic), K: 10,
		}
	}
	hybrid := timeEach(tr, "index.hybrid_search", len(hybridQueries), func(i int) {
		sys.Store.SearchDocs(hybridQueries[i])
	})
	set("index.hybrid_search_us", median(hybrid), len(hybrid))

	// index writes: the corpus re-put into a scratch store, alone and then
	// beside a searcher.
	docs := sys.Store.SearchDocs(index.Query{})
	chunks := sys.Store.SearchChunks(index.Query{})
	if len(chunks) > 3000 {
		chunks = chunks[:3000]
	}
	refill := func() (*index.Store, time.Duration) {
		store := index.NewStore()
		for _, d := range docs {
			if err := store.PutDocument(d.Doc); err != nil {
				t.problem("scratch PutDocument: %v", err)
			}
		}
		start := time.Now()
		for _, ch := range chunks {
			if err := store.PutChunk(ch.Chunk); err != nil {
				t.problem("scratch PutChunk: %v", err)
			}
		}
		return store, time.Since(start)
	}
	start := time.Now()
	_, putting := refill()
	tr.add("index.put_chunks", "probe", 0, start, time.Now())
	set("index.put_chunk_us", us(putting)/float64(len(chunks)), len(chunks))

	if len(chunks) > 0 {
		var wg sync.WaitGroup
		var scratch *index.Store
		ready, done := make(chan struct{}), make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			scratch = index.NewStore()
			close(ready)
			for _, ch := range chunks {
				if err := scratch.PutChunk(ch.Chunk); err != nil {
					return
				}
			}
		}()
		<-ready
		query := chunks[rng.Intn(len(chunks))].Chunk.Vector
		var during []float64
		for writing := true; writing; {
			select {
			case <-done:
				writing = false
			default:
				d := tr.time("index.search_during_write", "probe", func() {
					scratch.SearchChunks(index.Query{Vector: query, K: 10})
				})
				during = append(during, us(d))
			}
		}
		wg.Wait()
		sort.Float64s(during)
		set("index.search_during_write_p95_us", percentile(during, 0.95), len(during))
	}

	// embed: chunk-sized texts, as ingest embeds them.
	sample := chunks[:min(len(chunks), 200)]
	embeds := timeEach(tr, "embed.chunk_embed", len(sample), func(i int) { sys.Embedder.Embed(sample[i].Chunk.Text) })
	set("embed.chunk_embed_us", median(embeds), len(embeds))

	// docparse: the corpus's own blobs.
	blobs, err := p.corpus.Blobs()
	if err != nil {
		t.problem("encode corpus: %v", err)
	}
	var ids []string
	for id := range blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ids = ids[:min(len(ids), 50)]
	parts := timeEach(tr, "docparse.partition", len(ids), func(i int) {
		d := docmodel.New(ids[i])
		d.Binary = blobs[ids[i]]
		if _, err := sys.Parser.Partition(d); err != nil {
			t.problem("Partition %s: %v", ids[i], err)
		}
	})
	var total float64
	for _, v := range parts {
		total += v
	}
	set("docparse.partition_ms_per_doc", ratio(total, float64(len(parts)))/1000, len(parts))

	// core: schema re-inference and the service swap, as every job ends.
	prepares := timeEach(tr, "core.prepare", 5, func(int) { sys.Prepare() })
	set("core.prepare_ms", median(prepares)/1000, len(prepares))
}

// runTraced makes the traced run of one workload and reports every
// per-layer metric.
func runTraced(ctx context.Context, w workload, o options) (*runResult, error) {
	p, err := w.setUp(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer p.h.close()
	c := p.h.newClient()
	defer c.close()
	sys := p.h.sys

	res := &runResult{Workload: w.name, Seed: o.seed, Corpus: o.corpusSeed, Seconds: o.seconds, Trace: true, Metrics: map[string]metric{}}
	set := func(name string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name), N: n}
	}
	t := &traced{p: p, tr: newTracer(), httpWall: map[int][]float64{}, askWall: map[int][]float64{}}

	// One untraced pass sizes the rest: as many whole passes as fit a fifth
	// of the window, the same number traced, so that the two p50s compare.
	var session string
	passStart := time.Now()
	untraced := t.httpPass(ctx, c, nil, 0, 0, &session)
	passes := int(o.seconds / 5 / time.Since(passStart).Seconds())
	passes = min(max(passes, 1), 50)
	for pass := 1; pass < passes; pass++ {
		untraced = append(untraced, t.httpPass(ctx, c, nil, pass, pass, &session)...)
	}

	llmBefore, usageBefore := sys.LLMStats(), sys.LLM.Usage()
	var tracedMS []float64
	for pass := 0; pass < passes; pass++ {
		tracedMS = append(tracedMS, t.httpPass(ctx, c, t.tr, pass, passes+pass, &session)...)
	}
	llmDelta := sys.LLMStats().Sub(llmBefore)
	tokens := sys.LLM.Usage().Sub(usageBefore).Total()
	items := float64(passes * len(p.script))
	requests := passes * len(p.script)

	for pass := 0; pass < passes; pass++ {
		t.replayPass(ctx, pass)
	}
	t.probes(ctx, o.seed, set)

	// server
	var overhead []float64
	for i, http := range t.httpWall {
		if ask := t.askWall[i]; len(ask) > 0 {
			overhead = append(overhead, median(http)-median(ask))
		}
	}
	set("server.overhead_p50_us", median(overhead), len(overhead))
	set("server.response_bytes_per_query", mean(t.queryBytes), len(t.queryBytes))
	set("server.plan_p50_ms", median(t.planMS), len(t.planMS))
	set("server.chat_turn_p50_ms", median(t.chatTurnMS), len(t.chatTurnMS))
	set("server.sse_events_per_stream", mean(t.streamEvts), len(t.streamEvts))
	set("server.stream_total_p50_ms", median(t.streamMS), len(t.streamMS))
	var stats statsReply
	if err := c.getJSON(ctx, "/v1/stats", &stats); err != nil {
		return nil, err
	}
	var shed, serverErrors int64
	for _, ep := range stats.Endpoints {
		shed += ep.Shed
		serverErrors += ep.ServerErrors
	}
	set("server.shed_requests", float64(shed), 0)
	set("server.server_errors", float64(serverErrors), 0)
	if stats.Resilience != nil {
		set("resilience.retries", float64(stats.Resilience.Retries), 0)
		set("resilience.breaker_opens", float64(stats.Resilience.Breaker.Opens), 0)
	}

	// luna
	set("luna.parse_us", median(t.parseUS), len(t.parseUS))
	set("luna.validate_us", median(t.validateUS), len(t.validateUS))
	set("luna.inspect_us", median(t.inspectUS), len(t.inspectUS))
	set("luna.planonly_warm_us", median(t.planOnlyUS), len(t.planOnlyUS))
	set("luna.exec_wall_ms", mean(t.execWallMS), len(t.execWallMS))
	set("luna.plan_nodes", mean(t.planNodes), len(t.planNodes))
	set("luna.exec_branches", mean(t.branches), len(t.branches))

	// cost
	opt := sys.OptimizerStats()
	set("cost.store_entries", float64(opt.Entries), 0)
	set("cost.store_hit_ratio", ratio(float64(opt.Hits), float64(opt.Hits+opt.Misses)), int(opt.Hits+opt.Misses))
	set("cost.est_over_observed_llm_calls", ratio(t.estCalls, t.nodeCalls), t.asks)

	// docset, summed over each executed query's plan nodes
	asks := float64(t.asks)
	var wallMS float64
	for _, v := range t.execWallMS {
		wallMS += v
	}
	set("docset.llm_calls_per_query", ratio(t.nodeCalls, asks), t.asks)
	set("docset.docs_in_per_query", ratio(t.docsIn, asks), t.asks)
	set("docset.busy_ms_per_query", ratio(t.busyMS, asks), t.asks)
	set("docset.parallel_ratio", ratio(t.busyMS, wallMS), t.asks)
	set("docset.llm_busy_share", ratio(t.llmBusyMS, t.busyMS), t.asks)
	set("docset.cascade_escalation_ratio", ratio(t.escalations, t.screened), int(t.screened))
	set("docset.retries", t.retries, t.asks)
	set("docset.backoff_ms", t.backoffMS, t.asks)
	set("docset.first_out_ms_p50", median(t.firstOutMS), len(t.firstOutMS))

	// llm, from the middleware's counters across the traced HTTP passes
	lookups := float64(llmDelta.Cache.Hits + llmDelta.Cache.Misses)
	batches := float64(llmDelta.Batch.Batches)
	set("llm.cache_hit_ratio", ratio(float64(llmDelta.Cache.Hits), lookups), int(lookups))
	set("llm.requests_per_query", float64(llmDelta.Batch.Requests)/items, requests)
	set("llm.dispatches_per_query", batches/items, requests)
	set("llm.tokens_per_query", float64(tokens)/items, requests)
	set("llm.mean_batch_size", ratio(float64(llmDelta.Batch.Requests), batches), int(batches))
	set("llm.linger_flush_ratio", ratio(float64(llmDelta.Batch.LingerFlushes), batches), int(batches))
	set("llm.flight_shared_per_query", float64(llmDelta.Flight.Shared)/items, requests)
	// Computed, not measured: every dispatch pays one simulated round trip.
	set("llm.backend_ms_computed", batches*ms(simLatency)/items, requests)

	// index, embed, rag, core, from the per-item probes and set-up
	set("index.vector_search_us", median(t.vectorUS), len(t.vectorUS))
	set("index.bm25_search_us", median(t.bm25US), len(t.bm25US))
	set("index.filter_scan_us", median(t.filterUS), len(t.filterUS))
	set("index.docs", float64(sys.Store.NumDocs()), 0)
	set("index.chunks", float64(sys.Store.NumChunks()), 0)
	set("embed.query_embed_us", median(t.embedUS), len(t.embedUS))
	set("rag.answer_ms", median(t.ragMS), len(t.ragMS))
	set("core.ingest_ms_per_doc", ms(p.ingestWall)/float64(p.ingestDocs), p.ingestDocs)
	set("core.ingest_dispatches", float64(p.ingestLLM.Batch.Batches), 0)
	set("qa.correct", float64(p.qaCorrect), 0)
	set("retrieval.recall_at_10", p.recall, 0)

	// trace: what tracing cost, and where the request's time sits
	set("trace.overhead_ratio", ratio(percentile(sortedCopy(tracedMS), 0.5), percentile(sortedCopy(untraced), 0.5)), len(tracedMS))
	var probeSelf, requestUS float64
	self := selfTimes(t.tr.spans)
	for _, s := range t.tr.spans {
		layer := layerOf(s.Name)
		switch {
		case s.Name == "server.request":
			requestUS += s.durUS()
		case s.Request != "probe" && (layer == "index" || layer == "embed"):
			probeSelf += self[s.ID]
		}
	}
	set("trace.index_embed_self_share", ratio(probeSelf, requestUS), requests)

	// load: what two clients see, from a window like the timed run's. It
	// comes last because on the ingest workload it grows the store.
	win, err := p.window(ctx, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, fmt.Errorf("loaded window: %w", err)
	}
	for _, problem := range win.problems {
		t.problem("loaded window: %s", problem)
	}
	p.loadMetrics(win, float64(p.ingestDocs)/p.ingestWall.Seconds(), set)
	if n := min(len(pooled(win.query)), len(pooled(win.ttfe))); supportedPercentile(n) < tailPercentile {
		fmt.Fprintf(o.log, "%s: note: %d samples leave fewer than %d beyond p%.0f; read the tails with care\n", w.name, n, minBeyond, 100*tailPercentile)
	}

	// Every per-layer metric is reported on every workload; one this
	// workload never exercises (no stream, no topic search) reads 0.
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			set(m.Name, 0, 0)
		}
	}
	path, err := t.tr.write(o.traceDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: traced %d passes of %d items, %d spans in %s\n", w.name, passes, len(p.script), len(t.tr.spans), path)

	res.Attempted = p.attempted + 2*requests + win.attempted
	res.Failed = len(t.problems)
	res.Problems = append(t.problems, p.gradeProblems(o)...)
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
