package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"aryn/internal/luna"
)

// This file holds what POST /v1/plan and POST /v1/query share — the
// question-or-plan request subject and the rendering of a plan-lifecycle
// record — and the /v1/plan handler itself. docs/plan-api.md walks the
// inspect → edit → re-run loop they implement.

// subject is what a plan or query request is about: a submitted plan
// (typically an edit of one /v1/plan returned), or a question for the
// planner. The plan wins when both are present.
type subject struct {
	question string            // as sent; may be empty beside a plan
	plan     *luna.LogicalPlan // nil: plan the question
}

// decodeSubject applies the checks both endpoints make before any work:
// something to act on, data to act over, a plan body that is a plan. It
// writes the error response itself.
func (s *Server) decodeSubject(w http.ResponseWriter, r *http.Request, question string, rawPlan json.RawMessage) (subject, bool) {
	sub := subject{question: question}
	if question == "" && len(rawPlan) == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("provide a question or a plan"))
		return sub, false
	}
	if !s.sys.Ready() {
		s.writeError(w, r, http.StatusConflict, fmt.Errorf("no data ingested yet"))
		return sub, false
	}
	if len(rawPlan) > 0 {
		var err error
		if sub.plan, err = decodePlan(rawPlan); err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return sub, false
		}
	}
	return sub, true
}

// label is the question an execution is recorded and answered under.
func (sub subject) label() string {
	if sub.question == "" {
		return "(user-submitted plan)"
	}
	return sub.question
}

// execute runs the subject: a submitted plan directly (validation still
// applies, the planner LLM does not), a question through the planner.
func (sub subject) execute(ctx context.Context, svc *luna.Service) (*luna.Result, error) {
	if sub.plan != nil {
		return svc.RunPlan(ctx, sub.label(), sub.plan)
	}
	return svc.Ask(ctx, sub.question)
}

// decodePlan parses a submitted plan body. A body that decodes to no
// nodes is not a plan at all (the retired {"ops": [...]} form lands here)
// and is refused with the validator's own empty-plan error, so it is
// answered as a request error before any stream opens.
func decodePlan(raw json.RawMessage) (*luna.LogicalPlan, error) {
	var plan luna.LogicalPlan
	if err := json.Unmarshal(raw, &plan); err != nil {
		return nil, fmt.Errorf("bad plan JSON: %w", err)
	}
	if len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("%w: empty plan", luna.ErrInvalidPlan)
	}
	return &plan, nil
}

// queryService resolves the service for one request: the system's wired
// service, with the request's optimize override applied when present.
func (s *Server) queryService(optimize *bool) *luna.Service {
	svc := s.sys.QueryService()
	if svc != nil && optimize != nil {
		svc = svc.WithOptimize(*optimize)
	}
	return svc
}

// handlePlan serves POST /v1/plan: the execution-free half of the plan
// API, plus EXPLAIN ANALYZE. With a question it runs the planner,
// validator and rule list; with a plan it dry-runs a user edit. Either way
// the response carries the plan JSON the client can edit and POST back to
// /v1/query. With {"analyze": true} the subject additionally executes for
// real (semantic operators run, LLM calls are spent) and the plan detail
// carries "executed" — the plan annotated with per-node runtime metrics —
// while the answer is withheld: the runtime feedback loop without the
// result.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	sub, ok := s.decodeSubject(w, r, req.Question, req.Plan)
	if !ok {
		return
	}
	ctx, cancel := s.workCtx(r)
	defer cancel()
	start := time.Now()
	svc := s.queryService(req.Optimize)

	var pv *luna.PlanPreview
	var exec *luna.ExecDetail
	var err error
	switch {
	case req.Analyze:
		var res *luna.Result
		if res, err = sub.execute(ctx, svc); err == nil {
			pv, exec = &res.PlanPreview, res.Exec
		}
	case sub.plan != nil:
		pv, err = svc.InspectPlan(sub.plan)
	default:
		pv, err = svc.PlanOnly(ctx, sub.question)
	}
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, PlanResponse{
		TraceID:  traceFrom(r.Context()),
		Question: req.Question,
		Plan:     planDetail(pv, exec),
		WallMS:   time.Since(start).Milliseconds(),
	})
}

// planDetail renders a plan-lifecycle record for a response; exec (nil
// for a plan that was not executed) adds the EXPLAIN ANALYZE annotation.
func planDetail(pv *luna.PlanPreview, exec *luna.ExecDetail) PlanDetail {
	raw := func(p *luna.LogicalPlan) json.RawMessage {
		if p == nil {
			return nil
		}
		return json.RawMessage(p.JSON())
	}
	return PlanDetail{
		Original:      raw(pv.Plan),
		Rewritten:     raw(pv.Rewritten),
		Optimized:     raw(pv.Optimized),
		Cost:          pv.Cost,
		CostOptimized: pv.CostOptimized,
		Compiled:      pv.Compiled,
		Executed:      executedPlan(pv, exec),
	}
}

// executedPlan renders the EXPLAIN ANALYZE annotation (nil without runtime
// detail). It is built over the plan that actually ran — the optimized
// plan when the optimize phase was on — so node IDs line up with the
// runtime trace.
func executedPlan(pv *luna.PlanPreview, exec *luna.ExecDetail) json.RawMessage {
	ran := pv.ExecutedPlan()
	if exec == nil || ran == nil {
		return nil
	}
	return json.RawMessage(ran.AnnotatedJSON(exec))
}
