package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/docparse"
	"aryn/internal/docset"
	"aryn/internal/embed"
	"aryn/internal/fault"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/rag"
	"aryn/internal/resilience"
)

// Config parameterizes a System.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// Parallelism is the Sycamore busy-worker count per stage and per query
	// (stages that call the model keep a wider, fixed window of calls
	// outstanding; see internal/docset).
	Parallelism int
	// LLMOptions tune the simulated model (its round-trip latency).
	LLMOptions []llm.SimOption
	// RAGK is the baseline retrieval depth (default 100).
	RAGK int
	// LLMCacheCapacity bounds the response cache (default 4096 entries).
	LLMCacheCapacity int
	// Resilience, when set, inserts the retry/circuit-breaker middleware
	// into the LLM stack (between singleflight and the batcher) and paces
	// docset retries with the same backoff family. Nil keeps the
	// historical stack — library users opt in; the server always opts in.
	Resilience *resilience.Options
	// Fault, when set, wraps the backing model with the fault injector and
	// hooks docset stage attempts — the chaos-testing seam. The injector
	// stays inert until a spec is activated, so wiring it costs nothing.
	Fault *fault.Injector
	// Optimize turns on the approximate plan rewrite: llmExtracts that read
	// the section their field is in before the whole document (fewer
	// tokens). The exact rewrites (structured filters hoisted above LLM
	// operators, chained llmFilters fused into one call per document, …) run
	// on every plan either way.
	Optimize bool
}

// System is a fully wired Aryn instance.
//
// Query, the Luna service, is replaced wholesale by Prepare after each
// ingest; concurrent readers (the serving layer) must go through the
// accessors — QueryService, Ready, Ask — which synchronize against that
// swap. Direct field access remains fine for single-goroutine CLI/example
// use.
type System struct {
	Config Config
	Sim    *llm.Sim
	// LLM is the call-middleware stack every model call goes through; it
	// also counts their usage.
	LLM      *llm.Stack
	Embedder embed.Embedder
	Store    *index.Store
	Parser   *docparse.Service
	EC       *docset.Context
	Query    *luna.Service
	RAG      *rag.Pipeline
	// Resilience is the retry/breaker middleware instance when
	// Config.Resilience was set (nil otherwise).
	Resilience *resilience.Middleware
	// Fault is the injector from Config.Fault (nil when chaos testing is
	// not wired).
	Fault *fault.Injector

	// mu guards the Prepare swap of Query against concurrent accessor
	// reads.
	mu sync.RWMutex
	// conv is the conversation Ask answers in.
	conv luna.Conversation
}

// New builds a system: the Sim LLM (with Luna's planner skill registered)
// behind the call-middleware stack (cache with singleflight → batcher), the
// hash embedder, an empty store, and DocParse.
func New(cfg Config) *System {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	if cfg.RAGK <= 0 {
		cfg.RAGK = 100
	}
	sim := llm.NewSim(cfg.Seed, cfg.LLMOptions...)
	sim.Register(luna.PlannerSkill{})
	stackOpts := []llm.StackOption{}
	if cfg.LLMCacheCapacity > 0 {
		stackOpts = append(stackOpts, llm.WithCacheCapacity(cfg.LLMCacheCapacity))
	}
	var resMW *resilience.Middleware
	if cfg.Resilience != nil {
		stackOpts = append(stackOpts, llm.WithResilience(func(inner llm.Client) llm.Client {
			resMW = resilience.Wrap(inner, *cfg.Resilience)
			return resMW
		}))
	}
	// The fault injector wraps the backend itself so injected failures
	// exercise the full middleware stack above it (breaker, retries,
	// cache-served degradation) exactly like a real outage would.
	var backend llm.Client = sim
	if cfg.Fault != nil {
		backend = cfg.Fault.Client(sim)
	}
	stack := llm.NewStack(backend, stackOpts...)
	embedder := embed.NewHash(cfg.Seed)
	store := index.NewStore()
	ecOpts := []docset.Option{
		docset.WithLLM(stack),
		docset.WithEmbedder(embedder),
		docset.WithParallelism(cfg.Parallelism),
	}
	if cfg.Resilience != nil {
		// Pace docset-level retries with the same jitter family as the LLM
		// middleware (fresh retrier: independent stream, same policy).
		ecOpts = append(ecOpts, docset.WithBackoff(resilience.NewRetrier(cfg.Resilience.Retry)))
	}
	if cfg.Fault != nil {
		ecOpts = append(ecOpts, docset.WithFaultHook(cfg.Fault.Hook))
	}
	s := &System{
		Config:     cfg,
		Sim:        sim,
		LLM:        stack,
		Embedder:   embedder,
		Store:      store,
		Parser:     docparse.New(docparse.WithSeed(cfg.Seed + 1)),
		EC:         docset.NewContext(ecOpts...),
		Resilience: resMW,
		Fault:      cfg.Fault,
	}
	s.RAG = rag.New(store, stack, embedder)
	s.RAG.K = cfg.RAGK
	return s
}

// ExtractionSchema is the ETL-time llmExtract field set — the Table 3
// schema the paper loads into OpenSearch.
func ExtractionSchema() []llm.FieldSpec {
	return []llm.FieldSpec{
		{Name: "accidentNumber", Type: "string", Description: "NTSB accident number"},
		{Name: "aircraft", Type: "string", Description: "aircraft make and model"},
		{Name: "aircraftCategory", Type: "string", Description: "airplane, helicopter, or glider"},
		{Name: "aircraftDamage", Type: "string", Description: "damage level"},
		{Name: "registration", Type: "string", Description: "tail number"},
		{Name: "injuries", Type: "string", Description: "injury summary"},
		{Name: "dateAndTime", Type: "string", Description: "accident date and time"},
		{Name: "us_state", Type: "string", Description: "US state abbreviation"},
		{Name: "operator", Type: "string", Description: "aircraft operator"},
		{Name: "flightConductedUnder", Type: "string", Description: "regulation part"},
		{Name: "conditions", Type: "string", Description: "VMC or IMC"},
		{Name: "conditionOfLight", Type: "string", Description: "day or night"},
		{Name: "visibility", Type: "string", Description: "visibility in miles"},
		{Name: "windSpeed", Type: "int", Description: "wind speed in knots"},
		{Name: "temperature", Type: "float", Description: "temperature in C"},
		{Name: "pilotCertificate", Type: "string", Description: "pilot certificate level"},
		{Name: "flightTime", Type: "int", Description: "total pilot flight hours"},
		{Name: "engines", Type: "int", Description: "number of engines"},
		{Name: "probable_cause", Type: "string", Description: "probable cause statement"},
		{Name: "weather_related", Type: "bool", Description: "whether weather contributed"},
	}
}

// IngestStats summarizes one ingestion run.
type IngestStats struct {
	Documents int
	Chunks    int
	Elements  int
	Wall      time.Duration
	Usage     llm.Usage
	// LLM reports middleware activity (cache hits, batches) for the run.
	LLM llm.StackStats
}

// Ingest runs the Fig. 4 ETL pipeline over raw blobs: partition with
// DocParse, llmExtract the Table 3 schema, derive calendar/injury fields,
// index the parent documents, then cut each into chunks, embed, and index
// them.
// It finishes by inferring the query schema and wiring Luna.
func (s *System) Ingest(ctx context.Context, blobs map[string][]byte) (*IngestStats, error) {
	return s.IngestObserved(ctx, blobs, nil)
}

// IngestObserved is Ingest with a live trace sink: sink (when non-nil)
// receives the pipeline's *docset.Trace before execution starts, so
// callers — the async ingest-job API — can poll per-stage progress
// snapshots while the run is in flight. Queries keep serving from the
// last prepared snapshot throughout; the new data becomes visible only
// at the final Prepare swap.
func (s *System) IngestObserved(ctx context.Context, blobs map[string][]byte, sink func(*docset.Trace)) (*IngestStats, error) {
	start := time.Now()
	before := s.LLM.Usage()
	llmBefore := s.LLM.StackStats()

	ec := s.EC
	if sink != nil {
		scoped := *s.EC
		scoped.TraceSink = sink
		ec = &scoped
	}
	var elements atomic.Int64
	ds := docset.ReadBinary(ec, blobs).
		Partition(s.Parser).
		LLMExtract(ExtractionSchema()).
		Map("deriveFields", deriveFields).
		Write(s.Store).
		MergeChunks(120).
		Embed().
		Write(s.Store).
		// Stored chunks are counted, not held to the end with their vectors.
		Map("countElements", func(c *docmodel.Document) (*docmodel.Document, error) {
			elements.Add(int64(len(c.Elements)))
			return nil, nil
		})

	if _, _, err := ds.Execute(ctx); err != nil {
		return nil, fmt.Errorf("core: ingest: %w", err)
	}
	s.Prepare()
	return &IngestStats{
		Documents: s.Store.NumDocs(),
		Chunks:    s.Store.NumChunks(),
		Elements:  int(elements.Load()),
		Wall:      time.Since(start),
		Usage:     s.LLM.Usage().Sub(before),
		LLM:       s.LLM.StackStats().Sub(llmBefore),
	}, nil
}

// Prepare (re)infers the schema from the store and wires the Luna query
// service. Ingest calls it. Safe to call while queries are in flight:
// readers using the accessors see either the old or the new service,
// never a half-built one.
func (s *System) Prepare() {
	query := &luna.Service{
		Planner:  luna.NewPlanner(s.LLM, luna.InferSchema(s.Store)),
		Executor: &luna.Executor{EC: s.EC, Store: s.Store},
		Optimize: s.Config.Optimize,
	}
	s.mu.Lock()
	s.Query = query
	s.mu.Unlock()
}

// QueryService returns the current Luna service (nil before any ingest).
// The returned service is stateless and safe for concurrent Ask calls.
func (s *System) QueryService() *luna.Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.Query
}

// Ready reports whether the system has ingested data and can answer
// queries.
func (s *System) Ready() bool { return s.QueryService() != nil }

// LLMStats snapshots the middleware counters (cache hit/miss, singleflight
// collapses, batch sizes) accumulated since construction.
func (s *System) LLMStats() llm.StackStats { return s.LLM.StackStats() }

// LoadLLMCache warm-starts the response cache from a file SaveLLMCache
// wrote. A missing file is a cold start; any other failure is an error
// naming the file, and loads nothing.
func (s *System) LoadLLMCache(path string) error {
	err := s.LLM.CacheLayer().Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// SaveLLMCache persists the response cache so a later process warm-starts
// from it (LoadLLMCache).
func (s *System) SaveLLMCache(path string) error { return s.LLM.SaveCache(path) }

// OptimizerStats is always zero: the optimizer keeps no feedback store.
// It stays only because bench/layers.go still prints its three cost.*
// rows; ROADMAP item 7(g) deletes those rows and this method together.
func (s *System) OptimizerStats() struct{ Entries, Hits, Misses int64 } {
	return struct{ Entries, Hits, Misses int64 }{}
}

// Ask answers a natural-language question through Luna in the system's
// one shared conversation (a follow-up refers to the previous query),
// with the query service current at each turn.
func (s *System) Ask(ctx context.Context, question string) (*luna.Result, error) {
	q := s.QueryService()
	if q == nil {
		return nil, fmt.Errorf("core: no data ingested yet")
	}
	return s.conv.Ask(ctx, q, question)
}

// AskRAG answers through the RAG baseline for comparison.
func (s *System) AskRAG(ctx context.Context, question string) (*rag.Response, error) {
	return s.RAG.Answer(ctx, question)
}

// Degraded reports whether the system is serving in degraded mode —
// currently: the LLM circuit breaker is not closed — along with a short
// operator-facing reason.
func (s *System) Degraded() (bool, string) {
	if s.Resilience == nil {
		return false, ""
	}
	if st := s.Resilience.Breaker().State(); st != resilience.Closed {
		return true, fmt.Sprintf("llm circuit %s", st)
	}
	return false, ""
}

// PurgeLLMCache drops every resident response-cache entry and the plans
// the current planner kept (the cache-killed-mid-run chaos hook: after
// it, no model answer is remembered anywhere), returning how many cache
// entries were dropped.
func (s *System) PurgeLLMCache() int {
	if q := s.QueryService(); q != nil {
		q.Planner.Forget()
	}
	return s.LLM.CacheLayer().Purge()
}

// retrievalOnlyK is how many chunks a retrieval-only answer shows.
const retrievalOnlyK = 5

// RetrievalOnly answers a question without any LLM call: the top
// retrievalOnlyK chunks rendered as a numbered excerpt list. This is the
// degraded-mode fallback the serving layer's one answer shaper uses for a
// query or a chat turn when the model backend is unavailable — strictly
// worse than a synthesized answer, strictly better than a 500. Returns the
// rendered answer and how many chunks backed it.
func (s *System) RetrievalOnly(question string) (string, int) {
	vec := s.Embedder.Embed(question)
	hits := s.Store.SearchChunks(index.Query{Vector: vec, K: retrievalOnlyK})
	if len(hits) == 0 {
		return "No indexed content matched the question (LLM backend unavailable; retrieval-only answer).", 0
	}
	var sb strings.Builder
	sb.WriteString("LLM backend unavailable; showing the most relevant indexed excerpts instead of a synthesized answer:\n")
	for i, h := range hits {
		text := strings.ReplaceAll(h.Chunk.Text, "\n", " ")
		if len(text) > 240 {
			text = text[:240] + "…"
		}
		fmt.Fprintf(&sb, "[%d] (doc %s) %s\n", i+1, h.Chunk.ParentID, text)
	}
	return sb.String(), len(hits)
}

// deriveFields computes post-extraction properties: calendar month/year
// from dateAndTime and a numeric fatality count from the injury summary —
// ordinary ETL enrichment (§5: "the line between ETL and analytics gets
// blurred").
func deriveFields(d *docmodel.Document) (*docmodel.Document, error) {
	if dt := d.Property("dateAndTime"); dt != "" {
		if t, err := time.Parse("January 2, 2006 15:04", dt); err == nil {
			d.SetProperty("month", t.Month().String())
			d.SetProperty("year", t.Year())
		} else if t, err := time.Parse("January 2, 2006", strings.SplitN(dt, " at", 2)[0]); err == nil {
			d.SetProperty("month", t.Month().String())
			d.SetProperty("year", t.Year())
		}
	}
	d.SetProperty("fatalities", fatalCount(d.Property("injuries")))
	return d, nil
}

// fatalCount parses "2 Fatal, 1 Minor" style injury summaries.
func fatalCount(injuries string) int {
	low := strings.ToLower(injuries)
	idx := strings.Index(low, "fatal")
	if idx < 0 {
		return 0
	}
	fields := strings.Fields(low[:idx])
	if len(fields) == 0 {
		return 1
	}
	if n, err := strconv.Atoi(fields[len(fields)-1]); err == nil {
		return n
	}
	return 1
}
