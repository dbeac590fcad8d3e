package luna

import (
	"context"
	"fmt"

	"aryn/internal/cost"
	"aryn/internal/llm"
)

// Planner turns natural-language questions into validated, optimized
// logical plans by prompting the LLM (§6.1 Query Planning).
type Planner struct {
	// Client is the planning model.
	Client llm.Client
	// Schema describes the queryable DocSet.
	Schema Schema
	// Rewrites configures plan optimization.
	Rewrites RewriteOptions
	// MaxRepairs bounds re-planning attempts after validation failures.
	MaxRepairs int
}

// NewPlanner builds a planner with default rewrites.
func NewPlanner(client llm.Client, schema Schema) *Planner {
	return &Planner{Client: client, Schema: schema, Rewrites: DefaultRewrites(), MaxRepairs: 1}
}

// Plan produces the raw and rewritten plans for a question. On validation
// failure it re-prompts once with the validator's feedback appended —
// the "check that it is semantically valid" loop of §6.1.
func (p *Planner) Plan(ctx context.Context, question string) (raw, rewritten *LogicalPlan, err error) {
	prompt := BuildPlanPrompt(p.Schema, question)
	for attempt := 0; ; attempt++ {
		resp, cerr := p.Client.Complete(ctx, llm.Request{Prompt: prompt})
		if cerr != nil {
			return nil, nil, fmt.Errorf("luna: planning call: %w", cerr)
		}
		plan, perr := ParsePlan(resp.Text)
		if perr == nil {
			perr = Validate(plan, p.Schema)
		}
		if perr == nil {
			return plan, Rewrite(plan, p.Rewrites), nil
		}
		if attempt >= p.MaxRepairs {
			return nil, nil, fmt.Errorf("luna: plan for %q failed validation: %w", question, perr)
		}
		prompt += fmt.Sprintf("\nYour previous plan was invalid (%v). Emit a corrected JSON plan.\n", perr)
	}
}

// Service bundles planning and execution into the end-to-end query API.
type Service struct {
	Planner  *Planner
	Executor *Executor
	// Cost backs the optimize phase's estimates and receives per-operator
	// feedback observations after every executed query; nil disables both.
	Cost *cost.Model
	// Optimize enables the cost-based optimize phase after the rule-based
	// rewrites. Off, queries still feed the feedback store (when Cost is
	// set), so turning optimization on later starts warm.
	Optimize bool
	// Cascade configures proxy-cascade insertion when Optimize is on.
	Cascade CascadeOptions
	// Hooks observe every execution Ask and RunPlan start (partial result
	// batches, live per-operator traces; see Executor.Run). Set them on a
	// per-request copy of the service (WithOptimize returns one): the
	// zero value observes nothing.
	Hooks StreamHooks
}

// WithOptimize returns a copy of the service with the optimize phase
// toggled — the per-request override behind the API's "optimize" flag.
// The copy shares the planner, executor, and cost model.
func (s *Service) WithOptimize(enabled bool) *Service {
	c := *s
	c.Optimize = enabled
	return &c
}

// optimizePhase applies the cost-based optimizer to the rewritten plan.
// It returns the plan to execute plus the optimized plan (nil when the
// phase is off, so callers can tell "optimized" apart from "as
// rewritten").
func (s *Service) optimizePhase(rewritten *LogicalPlan) (toRun, optimized *LogicalPlan) {
	if !s.Optimize {
		return rewritten, nil
	}
	o := &Optimizer{Model: s.Cost, Cascade: s.Cascade}
	optimized = o.Optimize(rewritten)
	return optimized, optimized
}

// annotate fills a result's optimizer fields: the rewritten/optimized
// plan split and the cost model's estimates for both.
func (s *Service) annotate(res *Result, rewritten, optimized *LogicalPlan) {
	res.Rewritten = rewritten
	res.Optimized = optimized
	if s.Cost == nil {
		return
	}
	base := s.baseDocs()
	res.Cost = EstimatePlan(rewritten, s.Cost, base)
	if optimized != nil {
		res.CostOptimized = EstimatePlan(optimized, s.Cost, base)
	}
}

// observe records the executed plan's measured per-operator behaviour
// into the feedback store — the write half of the optimization loop.
// Partial (errored) executions are skipped: their truncated counts would
// poison selectivity evidence.
func (s *Service) observe(res *Result, err error) {
	if s.Cost == nil || err != nil || res == nil || res.Exec == nil {
		return
	}
	ObserveExec(res.ExecutedPlan(), res.Exec, s.Cost.Store)
}

// baseDocs is the corpus cardinality estimates start from.
func (s *Service) baseDocs() float64 {
	if s.Executor == nil || s.Executor.Store == nil {
		return 0
	}
	return float64(s.Executor.Store.NumDocs())
}

// run is the one body behind Ask and RunPlan: optimize the rewritten
// plan, execute it under the service's hooks, fill in the query facts,
// and feed the cost model.
func (s *Service) run(ctx context.Context, question string, raw, rewritten *LogicalPlan) (*Result, error) {
	toRun, optimized := s.optimizePhase(rewritten)
	res, err := s.Executor.Run(ctx, toRun, s.Hooks)
	if res != nil {
		// Fill in the query facts even on a partial result so degraded-mode
		// callers can still show the plan and per-node error annotations.
		res.Question = question
		res.Plan = raw
		s.annotate(res, rewritten, optimized)
	}
	s.observe(res, err)
	return res, err
}

// Ask plans, validates, optimizes, compiles, and executes the question.
func (s *Service) Ask(ctx context.Context, question string) (*Result, error) {
	before, hasStats := llm.StatsOf(s.Planner.Client)
	raw, rewritten, err := s.Planner.Plan(ctx, question)
	if err != nil {
		return nil, err
	}
	res, err := s.run(ctx, question, raw, rewritten)
	if res != nil && hasStats {
		// Planner and executor share one middleware stack in a wired
		// system, so a single delta covers the whole query.
		if after, ok := llm.StatsOf(s.Planner.Client); ok {
			delta := after.Sub(before)
			res.LLM = &delta
		}
	}
	return res, err
}

// RunPlan executes a user-edited plan directly (the §6.2 "modify any part
// of the plan" path), bypassing the planner but not validation or the
// rule-based rewrites — submitted plans run through the same
// semantics-preserving optimizations the planner path applies, so the
// pipeline InspectPlan previews is the pipeline that executes.
func (s *Service) RunPlan(ctx context.Context, question string, plan *LogicalPlan) (*Result, error) {
	if err := Validate(plan, s.Planner.Schema); err != nil {
		return nil, err
	}
	return s.run(ctx, question, plan, Rewrite(plan, s.Planner.Rewrites))
}

// PlanPreview is a planned-but-not-executed query: the inspectable half
// of the §6.2 inspect→edit→re-run loop.
type PlanPreview struct {
	Question string
	// Plan is the plan as emitted by the planner (or submitted by the
	// user), before optimization.
	Plan *LogicalPlan
	// Rewritten is the plan after rule-based optimization.
	Rewritten *LogicalPlan
	// Optimized is the plan after the cost-based optimize phase (nil when
	// the phase is off).
	Optimized *LogicalPlan
	// Cost/CostOptimized are the model's estimates for the rewritten and
	// optimized plans (nil without a cost model) — the "estimated" half
	// of the estimated-vs-observed story; the observed half arrives with
	// execution (EXPLAIN ANALYZE).
	Cost          *cost.PlanEstimate
	CostOptimized *cost.PlanEstimate
	// Compiled is the physical Sycamore pipeline the plan that would
	// execute (optimized when the phase is on) lowers to.
	Compiled string
}

// preview assembles a PlanPreview for a rewritten plan: optimize phase,
// estimates, and the compiled rendering of the pipeline that would run.
func (s *Service) preview(question string, raw, rewritten *LogicalPlan) (*PlanPreview, error) {
	toRun, optimized := s.optimizePhase(rewritten)
	compiled, err := s.Executor.Compile(toRun)
	if err != nil {
		return nil, err
	}
	pv := &PlanPreview{Question: question, Plan: raw, Rewritten: rewritten, Optimized: optimized, Compiled: compiled}
	if s.Cost != nil {
		base := s.baseDocs()
		pv.Cost = EstimatePlan(rewritten, s.Cost, base)
		if optimized != nil {
			pv.CostOptimized = EstimatePlan(optimized, s.Cost, base)
		}
	}
	return pv, nil
}

// PlanOnly plans, validates, rewrites, and compiles the question without
// executing anything — the cheap POST /plan path.
func (s *Service) PlanOnly(ctx context.Context, question string) (*PlanPreview, error) {
	raw, rewritten, err := s.Planner.Plan(ctx, question)
	if err != nil {
		return nil, err
	}
	return s.preview(question, raw, rewritten)
}

// InspectPlan validates, rewrites, and compiles a user-submitted plan
// without executing it — a dry run for edited plans, surfacing every
// validation problem at once.
func (s *Service) InspectPlan(plan *LogicalPlan) (*PlanPreview, error) {
	if err := Validate(plan, s.Planner.Schema); err != nil {
		return nil, err
	}
	return s.preview("", plan, Rewrite(plan, s.Planner.Rewrites))
}
