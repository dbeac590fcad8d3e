package luna

import (
	"context"
	"fmt"

	"aryn/internal/llm"
)

// Planner turns natural-language questions into validated logical plans
// by prompting the LLM (§6.1 Query Planning).
type Planner struct {
	// Client is the planning model.
	Client llm.Client
	// Schema describes the queryable DocSet.
	Schema Schema
}

// maxRepairs bounds re-planning attempts after validation failures.
const maxRepairs = 1

// NewPlanner builds a planner that re-plans once on a validation failure.
func NewPlanner(client llm.Client, schema Schema) *Planner {
	return &Planner{Client: client, Schema: schema}
}

// Plan produces the validated plan for a question. On validation failure
// it re-prompts with the validator's feedback appended — the "check that
// it is semantically valid" loop of §6.1.
func (p *Planner) Plan(ctx context.Context, question string) (*LogicalPlan, error) {
	prompt := BuildPlanPrompt(p.Schema, question)
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
			return plan, nil
		}
		if attempt >= maxRepairs {
			return nil, fmt.Errorf("luna: plan for %q failed validation: %w", question, perr)
		}
		prompt += fmt.Sprintf("\nYour previous plan was invalid (%v). Emit a corrected JSON plan.\n", perr)
	}
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
	stack, hasStats := s.Planner.Client.(*llm.Stack)
	var before llm.StackStats
	if hasStats {
		before = stack.StackStats()
	}
	plan, err := s.Planner.Plan(ctx, question)
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
	plan, err := s.Planner.Plan(ctx, question)
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
