package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/core"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
	"aryn/internal/qa"
)

// workload is one traffic mix. The fields say how its system is
// configured and how its script is driven; nothing here reaches the
// program except through core.Config and request bodies.
type workload struct {
	name string
	why  string
	// big selects the large corpus (scale.bigAccidents).
	big bool
	// tune changes the arynd wiring for this workload.
	tune func(*core.Config)
	// optimize makes every request carry "optimize": true.
	optimize bool
	// sseEvery makes one in n of a client's /v1/query requests a streamed
	// one (see streamed).
	sseEvery int
	// ingest replaces client 1 by the fixed sequence of async ingest jobs;
	// the window then ends when the last job is done, not after a time.
	ingest bool
}

var workloads = []workload{
	{
		name:     "serve-warm",
		why:      "Every model call is a cache hit, so server, luna plan CPU, docset scheduling and index filter scans are all of the time: the pure-overhead row that catches handler or instrumentation cost.",
		sseEvery: 8,
	},
	{
		name: "analytics-cold",
		why:  "Working set 3x a 256-entry cache, optimize on, JSON and SSE alternating: llm miss path, batcher, docset overlap and the luna/cost optimize phase do the work; server and index do almost none.",
		tune: func(c *core.Config) {
			c.LLMCacheCapacity = 256
			c.Optimize = true
		},
		optimize: true,
		sseEvery: 2,
	},
	{
		name:     "retrieval-heavy",
		why:      "1500-accident corpus, vector and keyword searches with warm planning calls: embed and index exact kNN/BM25 are most of each request and llm is idle, so an LLM-middleware change must not move it.",
		big:      true,
		sseEvery: 8,
	},
	{
		name:     "ingest-beside-reads",
		why:      "A fixed sequence of async ingest jobs beside one reader: docparse, llmExtract misses, embed, PutChunk under the store lock and the Prepare swap share layers with reads; a gain paid in writes shows.",
		sseEvery: 2, // one reader only: an even split gives each transport ≈ 20 samples per item
		ingest:   true,
	},
}

// streamed reports whether a client's visit-th visit to script item idx
// asks for SSE: every item is streamed once in sseEvery visits, each item
// in a different one. Counting requests instead (every n-th query) pins
// each item to one transport whenever the script's length and sseEvery
// share a factor, and which items are pinned to the dearer one then
// depends on where the seed made the client start.
func (w workload) streamed(idx, visit int) bool {
	return (idx+visit)%w.sseEvery == 0
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes a run. fullScale is the benchmark; the smoke test shrinks it
// so that every code path runs in about a second.
type scale struct {
	baseAccidents int
	bigAccidents  int
	topics        int
	// jobAccidents is the size of one ingest job and jobsPerSecond how many
	// jobs the ingest workload submits per second of requested window:
	// chosen once so that the sequence lasts about the window on the
	// reference box, then frozen, so both sides of a comparison do the
	// same work.
	jobAccidents  int
	jobsPerSecond float64
	// setups is how many times set-up runs (bigSetups on the large corpus,
	// where one set-up is seven times longer); setup_s is their median.
	setups, bigSetups int
	// minQA is the fewest of the 30 benchmark questions that must grade
	// correct on a seed with no pinned answer set.
	minQA int
}

var fullScale = scale{
	baseAccidents: 100, bigAccidents: 1500, topics: 64,
	jobAccidents: 25, jobsPerSecond: 8, setups: 3, bigSetups: 2, minQA: 17,
}

// pinnedWrong is, per corpus seed, the exact set of benchmark questions the
// system gets wrong at fullScale (the Sim model is imperfect by design,
// §7.2 of the paper). A change that alters any graded answer on these
// corpora fails the run. 42 is the default corpus; 43 is held out: claims
// made with this benchmark must also hold with -seed 43 -corpus-seed 43.
var pinnedWrong = map[int64][]int{
	42: {1, 2, 5, 6, 8, 9, 11, 22, 23, 24},
	43: {1, 2, 5, 6, 8, 9, 11, 13, 22, 23, 24},
}

// prepared is a set-up system with everything the window needs.
type prepared struct {
	w      workload
	h      *harness
	corpus *ntsb.Corpus
	script []item
	// expect is each script item's answer from the serial warm-up pass.
	// Answers are deterministic, so on a read-only workload every later
	// reply to the same item, JSON or streamed, must equal it.
	expect []string

	setup      time.Duration
	ingestWall time.Duration
	ingestDocs int
	ingestLLM  llm.StackStats
	coldTokens float64
	qaCorrect  int
	qaWrong    []int
	recall     float64
	graded     int // questions of set-up's graded cold pass
	attempted  int // requests that pass sent
}

// quality is the workload's answer quality by its own ground truth: the
// share of the 30 graded benchmark questions answered correctly, or
// recall@10 of the topic searches on the large corpus.
func (p *prepared) quality() float64 {
	if p.w.big {
		return p.recall
	}
	return float64(p.qaCorrect) / float64(p.graded)
}

// setUp generates the corpus, ingests it into a fresh system, grades a
// cold pass of questions and warms the script up. The corpus has a seed of
// its own: it is the dataset, and o.seed draws the traffic over it.
func (w workload) setUp(ctx context.Context, o options) (*prepared, error) {
	seed, sc := o.seed, o.scale
	start := time.Now()
	accidents := sc.baseAccidents
	if w.big {
		accidents = sc.bigAccidents
	}
	corpus, err := ntsb.GenerateCorpus(accidents, o.corpusSeed)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		return nil, fmt.Errorf("encode corpus: %w", err)
	}
	p := &prepared{w: w, h: newHarness(w.tune), corpus: corpus}
	ok := false
	defer func() {
		if !ok {
			p.h.close()
		}
	}()

	llmBefore := p.h.sys.LLMStats()
	st, err := p.h.sys.Ingest(ctx, blobs)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	p.ingestWall, p.ingestDocs = st.Wall, st.Documents
	p.ingestLLM = p.h.sys.LLMStats().Sub(llmBefore)

	c := p.h.newClient()
	defer c.close()
	rng := rand.New(rand.NewSource(seed))
	usage := p.h.sys.LLM.Usage()
	switch {
	case w.big:
		p.script = retrievalScript(rng, sc.topics)
		err = p.gradeRecall(ctx, c)
	default:
		err = p.gradeQA(ctx, c)
	}
	if err != nil {
		return nil, err
	}
	p.coldTokens = float64(p.h.sys.LLM.Usage().Sub(usage).Total()) / float64(p.graded)

	switch {
	case w.big:
	case w.optimize:
		p.script, err = analyticsColdScript(ctx, c, corpus)
	case w.ingest:
		p.script, err = readerScript(ctx, c, corpus)
	default:
		p.script = serveWarmScript(corpus)
	}
	if err != nil {
		return nil, err
	}

	// Warm-up: every item once, serially, JSON only. It fills the caches
	// the window is meant to find full and pins each item's answer.
	p.expect = make([]string, len(p.script))
	var session string
	for i := range p.script {
		out := execItem(ctx, c, &p.script[i], false, &session)
		if out.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.script[i].label, out.err)
		}
		p.expect[i] = out.answer
	}
	p.setup = time.Since(start)
	ok = true
	return p, nil
}

// gradeQA asks the 30 benchmark questions once over /v1/query, cold, and
// grades each reply against ground truth computed from the corpus.
func (p *prepared) gradeQA(ctx context.Context, c *client) error {
	for _, q := range qa.Questions(p.corpus) {
		var reply queryReply
		body := mustJSON(queryBody{Question: q.Text, Optimize: optimizeFlag(p.w.optimize)})
		if _, err := c.postJSON(ctx, "/v1/query", body, &reply); err != nil {
			return fmt.Errorf("grade q%02d: %w", q.ID, err)
		}
		p.graded++
		p.attempted++
		if qa.Grade(q, answerOf(reply), q.GT(p.corpus)) == qa.Correct {
			p.qaCorrect++
		} else {
			p.qaWrong = append(p.qaWrong, q.ID)
		}
	}
	return nil
}

// answerOf rebuilds the typed answer from its wire rendering (the
// inverse of luna.Answer.String for each kind), so qa.Grade judges what a
// client received.
func answerOf(r queryReply) luna.Answer {
	switch luna.AnswerKind(r.Kind) {
	case luna.AnswerNumber:
		if v, err := strconv.ParseFloat(r.Answer, 64); err == nil {
			return luna.NumberAnswer(v)
		}
	case luna.AnswerTable:
		table := map[string]float64{}
		for _, pair := range strings.Split(r.Answer, ", ") {
			// The value is what follows the last "=": a key may hold one.
			if i := strings.LastIndex(pair, "="); i >= 0 {
				if f, err := strconv.ParseFloat(pair[i+1:], 64); err == nil {
					table[pair[:i]] = f
				}
			}
		}
		return luna.TableAnswer(table)
	case luna.AnswerList:
		if r.Answer == "" {
			return luna.ListAnswer()
		}
		return luna.ListAnswer(strings.Split(r.Answer, ", ")...)
	}
	return luna.TextAnswer(r.Answer)
}

// gradeRecall streams every topic search once, cold, and compares the
// documents it returned with a brute-force cosine ranking the harness
// computes itself over the same chunk vectors.
func (p *prepared) gradeRecall(ctx context.Context, c *client) error {
	chunks := p.h.sys.Store.SearchChunks(index.Query{})
	norms := make([]float64, len(chunks))
	for i, ch := range chunks {
		norms[i] = norm(ch.Chunk.Vector)
	}
	var found, wanted int
	for i := range p.script {
		it := &p.script[i]
		if it.kind != kindQuery || it.rag || it.plan != nil {
			continue
		}
		// The text the system embeds is the plan's, not the question's:
		// read it from the plan the system made.
		var planned planReply
		if _, err := c.postJSON(ctx, "/v1/plan", it.body, &planned); err != nil {
			return fmt.Errorf("plan %s: %w", it.label, err)
		}
		root, err := vectorRoot(planned.Plan.Rewritten)
		if err != nil {
			return fmt.Errorf("plan %s: %w", it.label, err)
		}
		st, err := c.queryStream(ctx, it.body)
		if err != nil {
			return fmt.Errorf("search %s: %w", it.label, err)
		}
		p.graded++
		p.attempted += 2
		if st.partialDocs != st.reply.Docs {
			return fmt.Errorf("search %s: partial events carried %d docs, result says %d", it.label, st.partialDocs, st.reply.Docs)
		}
		truth := bruteForceTopDocs(chunks, norms, p.h.sys.Embedder.Embed(root.Query), root.K)
		got := map[string]bool{}
		for _, id := range st.docIDs {
			got[id] = true
		}
		for _, id := range truth {
			wanted++
			if got[id] {
				found++
			}
		}
	}
	if wanted == 0 {
		return fmt.Errorf("no topic search in the script to grade")
	}
	p.recall = float64(found) / float64(wanted)
	return nil
}

// vectorRoot finds the queryVectorDatabase node of a plan.
func vectorRoot(plan []byte) (planNodeShape, error) {
	shape, err := parseShape(plan)
	if err != nil {
		return planNodeShape{}, err
	}
	for _, n := range shape.Nodes {
		if n.Op == "queryVectorDatabase" {
			return n, nil
		}
	}
	return planNodeShape{}, fmt.Errorf("plan has no queryVectorDatabase node: %s", firstLine(plan))
}

func parseShape(plan []byte) (planShape, error) {
	var shape planShape
	if err := json.Unmarshal(plan, &shape); err != nil {
		return shape, fmt.Errorf("malformed plan: %w", err)
	}
	return shape, nil
}

func norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	if s == 0 {
		return 1
	}
	return math.Sqrt(s)
}

// bruteForceTopDocs ranks every chunk by cosine similarity to query and
// returns the first k distinct parent documents.
func bruteForceTopDocs(chunks []index.ChunkHit, norms []float64, query []float32, k int) []string {
	type scored struct {
		ord int
		cos float64
	}
	qn := norm(query)
	ranked := make([]scored, len(chunks))
	for i, ch := range chunks {
		var dot float64
		for j, x := range ch.Chunk.Vector {
			dot += float64(x) * float64(query[j])
		}
		ranked[i] = scored{i, dot / (norms[i] * qn)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].cos != ranked[j].cos {
			return ranked[i].cos > ranked[j].cos
		}
		return ranked[i].ord < ranked[j].ord
	})
	seen := map[string]bool{}
	var out []string
	for _, r := range ranked {
		id := chunks[r.ord].Chunk.ParentID
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
		if len(out) == k {
			break
		}
	}
	return out
}

// outcome is what one script item's exchange came to.
type outcome struct {
	wall     time.Duration
	ttfe     time.Duration // streamed queries only
	answer   string
	bytes    int
	events   int
	requests int
	err      error
}

// execItem performs one script item: a /v1/query (streamed when sse), a
// /v1/plan, or two turns of /v1/chat in the client's session.
func execItem(ctx context.Context, c *client, it *item, sse bool, session *string) outcome {
	start := time.Now()
	out := outcome{requests: 1}
	switch it.kind {
	case kindPlan:
		var reply planReply
		out.bytes, out.err = c.postJSON(ctx, "/v1/plan", it.body, &reply)
		if out.err == nil && len(reply.Plan.Rewritten) == 0 {
			out.err = fmt.Errorf("plan reply carries no rewritten plan")
		}
		out.answer = string(reply.Plan.Rewritten)
	case kindChat:
		out.requests = 2
		for _, turn := range []string{it.question, it.followUp} {
			var reply chatReply
			body := mustJSON(map[string]string{"session_id": *session, "question": turn})
			n, err := c.postJSON(ctx, "/v1/chat", body, &reply)
			out.bytes += n
			if err == nil && reply.Degraded {
				err = fmt.Errorf("chat turn served degraded")
			}
			if err != nil {
				out.err = err
				break
			}
			*session = reply.SessionID
			out.answer += reply.Answer + "\n"
		}
	case kindQuery:
		var reply queryReply
		if sse {
			var st *stream
			if st, out.err = c.queryStream(ctx, it.body); out.err == nil {
				reply, out.ttfe, out.events, out.bytes = st.reply, st.ttfe, st.events, st.bytes
				// The RAG baseline streams no partial batches; everything else
				// must have streamed exactly the documents it reports.
				if !it.rag && st.partialDocs != reply.Docs {
					out.err = fmt.Errorf("partial events carried %d docs, result says %d", st.partialDocs, reply.Docs)
				}
			}
		} else {
			out.bytes, out.err = c.postJSON(ctx, "/v1/query", it.body, &reply)
		}
		if out.err == nil && reply.Degraded {
			out.err = fmt.Errorf("query served degraded")
		}
		out.answer = reply.Answer
	}
	out.wall = time.Since(start)
	return out
}

// clientLog is what one closed-loop client measured in the window.
// Latencies are kept per script item (the index into prepared.script).
type clientLog struct {
	query     [][]time.Duration // /v1/query JSON, client wall
	ttfe      [][]time.Duration // /v1/query SSE, time to first event
	attempted int
	failed    int
	firstErr  error
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// runClient is one closed-loop client: it walks its own seeded order of
// the script, sending the next request only when the previous one has been
// answered, until stop reports true.
func (p *prepared) runClient(ctx context.Context, order []int, stop func() bool, log *clientLog) {
	c := p.h.newClient()
	defer c.close()
	log.query = make([][]time.Duration, len(p.script))
	log.ttfe = make([][]time.Duration, len(p.script))
	var session string
	for n := 0; !stop(); n++ {
		idx := order[n%len(order)]
		it := &p.script[idx]
		sse := it.kind == kindQuery && p.w.streamed(idx, n/len(order))
		out := execItem(ctx, c, it, sse, &session)
		log.attempted += out.requests
		switch {
		case out.err != nil:
			log.fail(fmt.Errorf("%s: %w", it.label, out.err))
			continue
		case !p.w.ingest && out.answer != p.expect[idx]:
			log.fail(fmt.Errorf("%s (sse=%v): answer %q differs from the warm-up's %q", it.label, sse, clip(out.answer), clip(p.expect[idx])))
			continue
		}
		if it.kind == kindQuery {
			if sse {
				log.ttfe[idx] = append(log.ttfe[idx], out.ttfe)
			} else {
				log.query[idx] = append(log.query[idx], out.wall)
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}

// ingestJobs builds the fixed job sequence of the ingest workload: job j
// is jobAccidents accidents generated from seed+1+j, re-keyed into its
// own ID namespace so that no job overwrites another's documents, as
// base64 blobs ready to post.
func ingestJobs(seed int64, jobs, jobAccidents int) (bodies [][]byte, docs int, err error) {
	for j := 0; j < jobs; j++ {
		corpus, err := ntsb.GenerateCorpus(jobAccidents, seed+1+int64(j))
		if err != nil {
			return nil, 0, fmt.Errorf("generate job %d: %w", j, err)
		}
		raw, err := corpus.Blobs()
		if err != nil {
			return nil, 0, fmt.Errorf("encode job %d: %w", j, err)
		}
		blobs := make(map[string]string, len(raw))
		for id, blob := range raw {
			blobs[fmt.Sprintf("job%d-%s", j, id)] = base64.StdEncoding.EncodeToString(blob)
		}
		docs += len(blobs)
		bodies = append(bodies, mustJSON(map[string]any{"blobs": blobs}))
	}
	return bodies, docs, nil
}

// jobPoll is how often the ingest client asks after its job: short
// against the ≈ 100 ms a job takes, so that polling adds about a percent.
const jobPoll = 2 * time.Millisecond

// runIngest is client 1 of the ingest workload: it submits each job and
// polls it to "done" before submitting the next. Each body is dropped once
// sent, so the inputs do not count as live heap at the window's end.
func (p *prepared) runIngest(ctx context.Context, bodies [][]byte, log *clientLog) {
	c := p.h.newClient()
	defer c.close()
	for j := range bodies {
		var job jobReply
		log.attempted++
		_, err := c.postJSON(ctx, "/v1/ingest", bodies[j], &job)
		bodies[j] = nil
		if err != nil {
			log.fail(fmt.Errorf("job %d: %w", j, err))
			return
		}
		for job.State != "done" {
			if job.State == "failed" {
				log.fail(fmt.Errorf("job %d failed: %+v", j, job.Error))
				return
			}
			select {
			case <-ctx.Done():
				log.fail(fmt.Errorf("job %d: %w", j, ctx.Err()))
				return
			case <-time.After(jobPoll):
			}
			log.attempted++
			if err := c.getJSON(ctx, "/v1/jobs/"+job.JobID, &job); err != nil {
				log.fail(fmt.Errorf("job %d: %w", j, err))
				return
			}
		}
	}
}

// windowResult is the timed window's measurements before they are named:
// the clients' logs folded together.
type windowResult struct {
	elapsed time.Duration
	// query and ttfe are per script item, as in clientLog.
	query, ttfe [][]time.Duration
	attempted   int
	failed      int
	// problems holds each client's first failure and whatever the
	// server's own counters disagree with.
	problems []string
	jobDocs  int
	// heapBeforeMB and heapMB are the live heap as the window starts and
	// as it ends.
	heapBeforeMB, heapMB float64
}

// liveHeapMB is what the heap holds after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// fixedWorkHeapMB is the live heap once the workload's fixed work is done:
// set-up, and on the ingest workload the job sequence too. On a read-only
// workload the heap at the window's end grows with every request served
// (sessions, logs), so it follows the box's speed: 26-29 MB between runs
// of serve-warm.
func (p *prepared) fixedWorkHeapMB(win *windowResult) float64 {
	if p.w.ingest {
		return win.heapMB
	}
	return win.heapBeforeMB
}

// loadMetrics names what the clients saw in a window. ingestRate is the
// rate at which set-up ingested the corpus; the ingest workload reports
// that of its job sequence instead.
func (p *prepared) loadMetrics(win *windowResult, ingestRate float64, set func(name string, v float64, n int)) {
	queryMS, ttfeMS := pooled(win.query), pooled(win.ttfe)
	if p.w.ingest {
		ingestRate = float64(win.jobDocs) / win.elapsed.Seconds()
	}
	set("load.query_item_p50_ms", itemP50(win.query), len(queryMS))
	set("load.query_p90_ms", percentile(queryMS, tailPercentile), len(queryMS))
	set("load.query_per_s", float64(len(queryMS)+len(ttfeMS))/win.elapsed.Seconds(), len(queryMS)+len(ttfeMS))
	set("load.stream_ttfe_item_p50_ms", itemP50(win.ttfe), len(ttfeMS))
	set("load.stream_ttfe_p90_ms", percentile(ttfeMS, tailPercentile), len(ttfeMS))
	set("load.ingest_docs_per_s", ingestRate, 0)
	set("load.heap_growth_mb", win.heapMB-win.heapBeforeMB, 0)
}

// pooled returns one kind's latencies of all items in milliseconds, sorted.
func pooled(perItem [][]time.Duration) []float64 {
	return durationsMS(slices.Concat(perItem...))
}

// window runs the timed part: two closed-loop clients for the given time,
// or the ingest sequence beside one reader until its last job is done.
func (p *prepared) window(ctx context.Context, seed int64, seconds float64, sc scale) (*windowResult, error) {
	res := &windowResult{
		query: make([][]time.Duration, len(p.script)),
		ttfe:  make([][]time.Duration, len(p.script)),
	}
	var bodies [][]byte
	if p.w.ingest {
		jobs := max(1, int(sc.jobsPerSecond*seconds+0.5))
		var err error
		if bodies, res.jobDocs, err = ingestJobs(seed, jobs, sc.jobAccidents); err != nil {
			return nil, err
		}
	}
	c := p.h.newClient()
	defer c.close()
	var before statsReply
	if err := c.getJSON(ctx, "/v1/stats", &before); err != nil {
		return nil, err
	}

	res.heapBeforeMB = liveHeapMB()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var ingestDone atomic.Bool
	stop := func() bool { return ctx.Err() != nil || time.Now().After(deadline) }
	if p.w.ingest {
		stop = func() bool { return ctx.Err() != nil || ingestDone.Load() }
	}
	var logs []*clientLog
	for id := 0; id < clients; id++ {
		log := &clientLog{}
		logs = append(logs, log)
		wg.Add(1)
		if p.w.ingest && id == 0 {
			go func() {
				defer wg.Done()
				defer ingestDone.Store(true)
				p.runIngest(ctx, bodies, log)
			}()
			continue
		}
		order := clientOrder(seed, id, len(p.script))
		go func() {
			defer wg.Done()
			p.runClient(ctx, order, stop, log)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, log := range logs {
		for i := range log.query {
			res.query[i] = append(res.query[i], log.query[i]...)
			res.ttfe[i] = append(res.ttfe[i], log.ttfe[i]...)
		}
		res.attempted += log.attempted
		res.failed += log.failed
		if log.firstErr != nil {
			res.problems = append(res.problems, log.firstErr.Error())
		}
	}

	res.heapMB = liveHeapMB()

	// The server's own books must agree that nothing failed or was shed.
	var after statsReply
	if err := c.getJSON(ctx, "/v1/stats", &after); err != nil {
		return nil, err
	}
	for route, ep := range after.Endpoints {
		if d := ep.ServerErrors - before.Endpoints[route].ServerErrors; d != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s answered %d server errors", route, d))
		}
		if d := ep.Shed - before.Endpoints[route].Shed; d != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s shed %d requests", route, d))
		}
	}
	if p.w.ingest {
		if want := before.Docs + res.jobDocs; after.Docs != want {
			res.problems = append(res.problems, fmt.Sprintf("store holds %d docs after the jobs, want %d + %d", after.Docs, before.Docs, res.jobDocs))
		}
	}
	return res, nil
}
