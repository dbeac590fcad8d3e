package luna

import (
	"context"
	"fmt"
	"sync"

	"aryn/internal/llm"
)

// Planner turns natural-language questions into validated logical plans
// by prompting the LLM (§6.1 Query Planning). It keeps the plans it has
// validated, keyed by the planning request, so a repeated question skips
// the model round trip however long ago the response cache dropped its
// answer — the way a database keeps a prepared plan. Safe for concurrent
// use.
type Planner struct {
	// Client is the planning model.
	Client llm.Client
	// Schema describes the queryable DocSet.
	Schema Schema

	mu   sync.Mutex
	memo map[string]*LogicalPlan // llm.Key of the planning request → validated plan
}

// maxRepairs bounds re-planning attempts after validation failures.
const maxRepairs = 1

// planMemoSize bounds the plans a Planner keeps; a full memo starts over.
// Without a bound a stream of one-off questions would grow the memo until
// the next ingest builds a new planner. A kept plan is about a kilobyte
// (the 30 benchmark questions' plans average ≈ 1 KB), so a full memo is
// ≈ 0.3 MB, and 256 distinct questions outlast what a dashboard or a
// benchmark script asks between two ingests.
const planMemoSize = 256

// NewPlanner builds a planner that re-plans once on a validation failure.
func NewPlanner(client llm.Client, schema Schema) *Planner {
	return &Planner{Client: client, Schema: schema}
}

// Plan produces the validated plan for a question; prev is the plan of
// the turn a follow-up refers to (nil for a question of its own), sent
// after the question in the planning request. On validation failure it
// re-prompts with the validator's feedback appended — the "check that it
// is semantically valid" loop of §6.1. A planning request it has answered
// before gets a copy of that plan, with no model call; the key is the
// request's content address, so a changed Schema or previous plan never
// serves an old plan. Only validated plans are kept (a repaired one too):
// a question that failed is asked again.
func (p *Planner) Plan(ctx context.Context, question string, prev *LogicalPlan) (*LogicalPlan, error) {
	prompt := BuildPlanPrompt(p.Schema, question)
	if prev != nil {
		prompt += previousPlanHeader + prev.JSON() + "\n"
	}
	key := llm.Key(p.Client.Name(), llm.Request{Prompt: prompt})
	if plan := p.recall(key); plan != nil {
		return plan, nil
	}
	for attempt := 0; ; attempt++ {
		resp, cerr := p.Client.Complete(ctx, llm.Request{Prompt: prompt})
		if cerr != nil {
			return nil, fmt.Errorf("luna: planning call: %w", cerr)
		}
		plan, perr := ParsePlan(resp.Text)
		if perr == nil {
			perr = Validate(plan, p.Schema)
		}
		if perr == nil {
			p.keep(key, plan)
			return plan, nil
		}
		if attempt >= maxRepairs {
			return nil, fmt.Errorf("luna: plan for %q failed validation: %w", question, perr)
		}
		prompt += fmt.Sprintf("\nYour previous plan was invalid (%v). Emit a corrected JSON plan.\n", perr)
	}
}

// recall returns a copy of the plan kept under key, or nil.
func (p *Planner) recall(key string) *LogicalPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan := p.memo[key]; plan != nil {
		return plan.Clone()
	}
	return nil
}

// keep stores a copy of a validated plan under key (the caller may edit
// the one it holds), emptying a full memo first: the bound is rarely
// reached, and then the questions still in use are planned back in.
func (p *Planner) keep(key string, plan *LogicalPlan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.memo == nil || len(p.memo) == planMemoSize {
		p.memo = map[string]*LogicalPlan{}
	}
	p.memo[key] = plan.Clone()
}

// Forget drops every kept plan, so the next ask of any question calls the
// model again (the purge_llm_cache chaos hook clears it with the response
// cache).
func (p *Planner) Forget() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memo = nil
}

// Service bundles planning and execution into the end-to-end query API.
type Service struct {
	Planner  *Planner
	Executor *Executor
	// Optimize runs the approximate rule, scopeExtracts, as well as the
	// exact ones every plan gets (see the rule list in rewrite.go).
	Optimize bool
	// Hooks observe every execution Ask and RunPlan start (partial result
	// batches, live per-operator traces; see Executor.Run). Set them on a
	// per-request copy of the service (WithOptimize returns one): the
	// zero value observes nothing.
	Hooks StreamHooks
}

// WithOptimize returns a copy of the service with the optimize phase
// toggled — the per-request override behind the API's "optimize" flag.
// The copy shares the planner and executor.
func (s *Service) WithOptimize(enabled bool) *Service {
	c := *s
	c.Optimize = enabled
	return &c
}

// PlanPreview is the plan-lifecycle record: every form a plan takes from
// the planner (or the user's editor) to the pipeline that runs, with the
// cost model's estimates. PlanOnly and InspectPlan return it on its own —
// the inspectable half of the §6.2 inspect→edit→re-run loop — and an
// executed Result embeds it.
type PlanPreview struct {
	Question string
	// Plan is the plan as emitted by the planner (or submitted by the
	// user), validated and otherwise untouched.
	Plan *LogicalPlan
	// Rewritten is the plan after the exact rules.
	Rewritten *LogicalPlan
	// Optimized is the plan after the whole rule list, scoped extracts
	// included (nil when the phase is off).
	Optimized *LogicalPlan
	// Cost/CostOptimized are the model's estimates for the rewritten and
	// optimized plans (CostOptimized is nil when the phase is off) — the
	// "estimated" half of the estimated-vs-observed story; the observed
	// half arrives with execution (EXPLAIN ANALYZE).
	Cost          *PlanEstimate
	CostOptimized *PlanEstimate
	// Compiled is the physical Sycamore pipeline ExecutedPlan lowers to.
	Compiled string
}

// ExecutedPlan returns the plan the executor runs — the optimized plan
// when the optimize phase fired, the rewritten plan otherwise. A Result's
// Exec node IDs always refer to this plan, so EXPLAIN annotation must use
// it rather than Rewritten.
func (pv *PlanPreview) ExecutedPlan() *LogicalPlan {
	if pv.Optimized != nil {
		return pv.Optimized
	}
	return pv.Rewritten
}

// lifecycle builds the record for a validated plan, all but Compiled: the
// exact rewrites, the optimize phase when it is on, and the cost model's
// estimates for both.
func (s *Service) lifecycle(question string, plan *LogicalPlan) PlanPreview {
	pv := PlanPreview{Question: question, Plan: plan, Rewritten: Rewrite(plan)}
	if s.Optimize {
		pv.Optimized = Optimize(pv.Rewritten)
	}
	base := s.baseDocs()
	pv.Cost = EstimatePlan(pv.Rewritten, base)
	pv.CostOptimized = EstimatePlan(pv.Optimized, base) // nil plan, nil estimate
	return pv
}

// baseDocs is the corpus cardinality estimates start from.
func (s *Service) baseDocs() float64 {
	if s.Executor == nil || s.Executor.Store == nil {
		return 0
	}
	return float64(s.Executor.Store.NumDocs())
}

// preview is the one body behind PlanOnly and InspectPlan: the lifecycle
// record plus the compiled rendering of the pipeline that would run.
func (s *Service) preview(question string, plan *LogicalPlan) (*PlanPreview, error) {
	pv := s.lifecycle(question, plan)
	var err error
	if pv.Compiled, err = s.Executor.Compile(pv.ExecutedPlan()); err != nil {
		return nil, err
	}
	return &pv, nil
}

// run is the one body behind Ask and RunPlan: build the lifecycle record
// and execute its plan under the service's hooks.
func (s *Service) run(ctx context.Context, question string, plan *LogicalPlan) (*Result, error) {
	pv := s.lifecycle(question, plan)
	res, err := s.Executor.Run(ctx, pv.ExecutedPlan(), s.Hooks)
	if res != nil {
		// Carry the record even on a partial result so degraded-mode
		// callers can still show the plan and per-node error annotations.
		pv.Compiled = res.Compiled
		res.PlanPreview = pv
	}
	return res, err
}

// Ask plans, validates, optimizes, compiles, and executes the question.
func (s *Service) Ask(ctx context.Context, question string) (*Result, error) {
	return s.ask(ctx, question, nil)
}

// ask is Ask for a question that may follow up on prev (see Planner.Plan).
func (s *Service) ask(ctx context.Context, question string, prev *LogicalPlan) (*Result, error) {
	stack, hasStats := s.Planner.Client.(*llm.Stack)
	var before llm.StackStats
	if hasStats {
		before = stack.StackStats()
	}
	plan, err := s.Planner.Plan(ctx, question, prev)
	if err != nil {
		return nil, err
	}
	res, err := s.run(ctx, question, plan)
	if res != nil && hasStats {
		// Planner and executor share one middleware stack in a wired
		// system, so a single delta covers the whole query.
		delta := stack.StackStats().Sub(before)
		res.LLM = &delta
	}
	return res, err
}

// RunPlan executes a user-edited plan directly (the §6.2 "modify any part
// of the plan" path), bypassing the planner but not validation or the
// rule list — submitted plans run through the same result-preserving
// rewrites the planner path applies, so the pipeline InspectPlan previews
// is the pipeline that executes.
func (s *Service) RunPlan(ctx context.Context, question string, plan *LogicalPlan) (*Result, error) {
	if err := Validate(plan, s.Planner.Schema); err != nil {
		return nil, err
	}
	return s.run(ctx, question, plan)
}

// PlanOnly plans, validates, rewrites, and compiles the question without
// executing anything — the cheap POST /v1/plan path.
func (s *Service) PlanOnly(ctx context.Context, question string) (*PlanPreview, error) {
	plan, err := s.Planner.Plan(ctx, question, nil)
	if err != nil {
		return nil, err
	}
	return s.preview(question, plan)
}

// InspectPlan validates, rewrites, and compiles a user-submitted plan
// without executing it — a dry run for edited plans, surfacing every
// validation problem at once.
func (s *Service) InspectPlan(plan *LogicalPlan) (*PlanPreview, error) {
	if err := Validate(plan, s.Planner.Schema); err != nil {
		return nil, err
	}
	return s.preview("", plan)
}
