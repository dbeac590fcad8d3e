package docset

import (
	"context"
	"time"

	"aryn/internal/embed"
	"aryn/internal/llm"
	"aryn/internal/resilience"
)

// Context carries the shared services a DocSet plan executes against: the
// LLM backing semantic operators, the embedding model, and execution knobs.
// It is the Go analogue of Sycamore's `context` handle (Fig. 4).
type Context struct {
	// LLM backs the semantic operators (llmExtract, llmFilter, ...).
	LLM llm.Client
	// Embedder backs the embed transform.
	Embedder embed.Embedder
	// Parallelism is how many workers compute at once per pipeline stage,
	// and per query under QueryScope (default 4). It does not bound the
	// model calls a stage keeps outstanding (see runMapStage).
	Parallelism int
	// Retries is how many times a transient LLM failure is retried per
	// document (default 2).
	Retries int
	// SampleSize is how many document summaries each operator keeps in its
	// lineage trace (default 3).
	SampleSize int
	// AttemptTimeout bounds each per-document attempt (map-stage retries
	// get a fresh budget per attempt). 0 means no per-attempt bound.
	AttemptTimeout time.Duration
	// Backoff paces the delay between transient-failure retries. The
	// default is a fast seeded full-jitter policy (single-digit
	// milliseconds) so in-process retries stay cheap; server deployments
	// install the same retrier family they use in the LLM middleware.
	Backoff *resilience.Retrier
	// FaultHook, when set, is consulted once per map-stage attempt with
	// the operator name — the chaos-testing seam that lets a fault
	// injector fail or slow ingest/index paths that never touch the LLM.
	FaultHook func(op string) error
	// StreamBatch is how many documents ExecuteStream accumulates before
	// handing a batch to its sink (default 8). Smaller batches lower time
	// to first result; larger ones amortize HTTP flush overhead.
	StreamBatch int
	// TraceSink, when set, observes every pipeline trace the moment its
	// skeleton exists — before execution starts — so callers can poll
	// live per-operator progress (NodeTrace.Snapshot) while the plan
	// runs. The Luna executor installs it per query scope to drive SSE
	// progress events.
	TraceSink func(*Trace)

	// callCtx is the context the current stage attempt runs under. Stage
	// runners install it (per attempt for map stages, per plan for
	// barriers) so semantic operators issue LLM calls that honor the
	// plan's cancellation and the per-attempt timeout.
	callCtx context.Context

	// budget, when set, caps the busy map-stage workers across every
	// pipeline sharing this context — the per-query worker budget the
	// scheduler installs so a plan whose branches execute concurrently
	// still draws at most Parallelism workers from the pool the server
	// shares between sessions. Nil means per-stage parallelism only (the
	// historical contract for direct docset users).
	budget *workerBudget

	// nt is the trace node of the stage this context view executes
	// (installed by forStage), so stage bodies can record activity the
	// generic runners cannot see, like cascade proxy verdicts.
	nt *NodeTrace

	// slot is the budget claim of the map-stage worker this context view
	// belongs to (installed per worker by runMapStage; nil in barrier and
	// source stages, which hold no slot).
	slot *workerSlot
}

// streamBatchSize returns the effective streaming batch size (contexts
// built without NewContext fall back to the default).
func (c *Context) streamBatchSize() int {
	if c.StreamBatch > 0 {
		return c.StreamBatch
	}
	return 8
}

// workerBudget is a counting semaphore over busy workers. Tokens are held
// only while a stage is actively processing a document — never across
// channel sends, subtree waits or model round trips — so pipelines sharing
// a budget cannot deadlock on it, and an idle branch's capacity is
// immediately available to its siblings (work-conserving).
type workerBudget struct {
	slots chan struct{}
}

func newWorkerBudget(n int) *workerBudget {
	if n < 1 {
		n = 1
	}
	return &workerBudget{slots: make(chan struct{}, n)}
}

// QueryScope returns a copy of the context with a fresh worker budget of
// Parallelism slots shared by every pipeline lowered under it. The Luna
// executor opens one scope per query; the scope's budget is what lets it
// schedule independent plan branches concurrently without multiplying the
// query's worker footprint by the branch count.
func (c *Context) QueryScope() *Context {
	out := *c
	out.budget = newWorkerBudget(c.Parallelism)
	return &out
}

// workerSlot is one map-stage worker goroutine's claim on the budget: taken
// before the worker computes on a document, given back when it is done and
// for the length of every model round trip in between (Context.complete).
// Only the owning goroutine touches it. A nil budget makes take and give
// no-ops (a plain map stage outside a query scope is bounded by its worker
// count alone).
type workerSlot struct {
	budget *workerBudget
	// done is the stage context's Done channel: a cancelled plan stops a
	// worker queued for a slot.
	done <-chan struct{}
	held bool
	// queued is how long the current document has waited to get the slot
	// back after a model call returned. The worker keeps it out of the
	// document's busy span: queueing for a worker is not work.
	queued time.Duration
}

// take blocks until the worker holds a slot; false means the plan was
// cancelled first and no slot is held.
func (s *workerSlot) take() bool {
	if s.budget == nil {
		return true
	}
	select {
	case s.budget.slots <- struct{}{}:
		s.held = true
		return true
	case <-s.done:
		return false
	}
}

// give hands the slot back if the worker holds one.
func (s *workerSlot) give() {
	if s.held {
		<-s.budget.slots
		s.held = false
	}
}

// complete issues one model call for the current stage attempt.
func (c *Context) complete(req llm.Request) (resp llm.Response, err error) {
	err = c.roundTrip(func(ctx context.Context) (err error) {
		resp, err = c.LLM.Complete(ctx, req)
		return err
	})
	return resp, err
}

// completeGroup issues one request group for the current stage attempt:
// at most one model call (llm.CompleteGroup).
func (c *Context) completeGroup(g llm.Group) (resps []llm.Response, err error) {
	err = c.roundTrip(func(ctx context.Context) (err error) {
		resps, err = llm.CompleteGroup(ctx, c.LLM, g)
		return err
	})
	return resps, err
}

// roundTrip runs one model round trip under the attempt's context. A
// map-stage worker gives its budget slot back for the round trip (a worker
// blocked on the model is not busy, so a sibling stage or branch computes
// meanwhile) and queues for it again before it parses the response.
// Barrier and source stages hold no slot and call straight through.
func (c *Context) roundTrip(call func(context.Context) error) error {
	ctx := c.CallContext()
	if c.slot == nil {
		return call(ctx)
	}
	c.slot.give()
	err := call(ctx)
	returned := wallclock()
	retaken := c.slot.take()
	c.slot.queued += wallclock().Sub(returned)
	if !retaken && err == nil {
		err = ctx.Err() // derived from the stage context, so done as well
	}
	return err
}

// CallContext returns the context the current stage attempt should issue
// model and I/O calls under: the plan's context bounded by the per-attempt
// timeout. Background when the operator runs outside a stage (direct
// calls in tests).
func (c *Context) CallContext() context.Context {
	if c.callCtx != nil {
		return c.callCtx
	}
	return context.Background() //lint:allow ctxflow documented fallback: operators invoked outside a stage (direct calls in tests) have no plan context
}

// withCallCtx returns a copy of the context with the attempt context
// installed (stage runners call this; operators read CallContext).
func (c *Context) withCallCtx(ctx context.Context) *Context {
	out := *c
	out.callCtx = ctx
	return &out
}

// forStage returns a stage-scoped view of the context whose LLM client
// records per-call activity into the stage's trace node. Attribution at
// dispatch is what makes shared subtrees report their usage exactly once:
// the calls land on the subtree's own stages, not on every consumer that
// replays its output.
func (c *Context) forStage(nt *NodeTrace) *Context {
	out := *c
	out.nt = nt
	if c.LLM != nil {
		out.LLM = &tracingLLM{inner: c.LLM, nt: nt}
	}
	return &out
}

// Option configures a Context.
type Option func(*Context)

// WithLLM sets the language model.
func WithLLM(c llm.Client) Option { return func(ctx *Context) { ctx.LLM = c } }

// WithEmbedder sets the embedding model.
func WithEmbedder(e embed.Embedder) Option { return func(ctx *Context) { ctx.Embedder = e } }

// WithParallelism sets per-stage worker count.
func WithParallelism(n int) Option {
	return func(ctx *Context) {
		if n > 0 {
			ctx.Parallelism = n
		}
	}
}

// WithRetries sets the per-document retry budget for transient failures.
func WithRetries(n int) Option {
	return func(ctx *Context) {
		if n >= 0 {
			ctx.Retries = n
		}
	}
}

// WithBackoff sets the retrier pacing delays between transient-failure
// retries (its MaxAttempts is ignored here — Retries owns the budget).
func WithBackoff(r *resilience.Retrier) Option {
	return func(ctx *Context) { ctx.Backoff = r }
}

// WithAttemptTimeout bounds each per-document map-stage attempt.
func WithAttemptTimeout(d time.Duration) Option {
	return func(ctx *Context) { ctx.AttemptTimeout = d }
}

// WithFaultHook installs a chaos-testing hook consulted once per
// map-stage attempt (see Context.FaultHook).
func WithFaultHook(hook func(op string) error) Option {
	return func(ctx *Context) { ctx.FaultHook = hook }
}

// WithStreamBatch sets how many documents an ExecuteStream sink receives
// per batch (see Context.StreamBatch).
func WithStreamBatch(n int) Option {
	return func(ctx *Context) {
		if n > 0 {
			ctx.StreamBatch = n
		}
	}
}

// NewContext builds an execution context. Unset services default to a
// seeded Sim LLM and hash embedder so examples work out of the box.
func NewContext(opts ...Option) *Context {
	ctx := &Context{Parallelism: 4, Retries: 2, SampleSize: 3, StreamBatch: 8}
	for _, o := range opts {
		o(ctx)
	}
	if ctx.LLM == nil {
		ctx.LLM = llm.NewSim(0)
	}
	if ctx.Embedder == nil {
		ctx.Embedder = embed.NewHash(0)
	}
	if ctx.Backoff == nil {
		// Fast in-process default: retries pace in single-digit
		// milliseconds so library users and tests never notice, while the
		// delay still decorrelates a retry stampede.
		ctx.Backoff = resilience.NewRetrier(resilience.Policy{
			BaseDelay: time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
			Seed:      1,
		})
	}
	return ctx
}
