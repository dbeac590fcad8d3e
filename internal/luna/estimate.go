package luna

import (
	"fmt"
	"math"
	"strings"

	"aryn/internal/cost"
)

// This file is the cost model's view of a plan: the operator signatures
// the feedback store is keyed by, the pre-execution estimate walk, and
// the post-execution observation write-back. The rules that act on the
// evidence are in rewrite.go.

// opSignature identifies an operator instance across queries for the
// feedback store: the operator name plus its semantically load-bearing
// parameters. A filter's evidence is kept per question (filterSignature),
// so a fused node has no entry of its own: EstimatePlan and ObserveExec
// walk its questions.
func opSignature(op LogicalOp) string {
	switch op.Op {
	case OpLLMFilter, OpLLMFilterCascade:
		return filterSignature(strings.Join(op.questions(), "|"))
	case OpBasicFilter:
		return "basicFilter|" + filterSig(op.Filters)
	case OpQueryDatabase:
		return "queryDatabase|" + op.Keyword + "|" + filterSig(op.Filters)
	case OpQueryVectorDatabase:
		return fmt.Sprintf("queryVectorDatabase|%s|%d", op.Query, op.K)
	case OpLLMExtract:
		names := make([]string, len(op.Fields))
		for i, f := range op.Fields {
			names[i] = f.Name
		}
		if op.Sections > 0 {
			// A scoped extract spends differently (it can ask twice), so its
			// evidence is its own.
			return "llmExtract|" + strings.Join(names, ",") + "|sections=1"
		}
		return "llmExtract|" + strings.Join(names, ",")
	case opDistinct:
		return "distinct|" + op.Field
	case OpGroupByAggregate:
		return fmt.Sprintf("groupByAggregate|%s|%s|%s", op.Key, op.Agg, op.ValueField)
	case OpFraction:
		return "fraction|" + op.Question + "|" + filterSig(op.Filters)
	default:
		return op.Op
	}
}

// filterSignature is the feedback-store key of one llmFilter question.
// The plain, cascaded and fused forms share it — they evaluate the same
// predicate, so selectivity evidence transfers between them.
func filterSignature(question string) string { return "llmFilter|" + question }

func filterSig(filters []FilterSpec) string {
	parts := make([]string, len(filters))
	for i, f := range filters {
		parts[i] = fmt.Sprintf("%s %s %v", f.Field, f.Kind, f.Value)
	}
	return strings.Join(parts, "&")
}

// defaultGroupCount is the assumed group cardinality for aggregation
// estimates before any evidence.
const defaultGroupCount = 8

// EstimatePlan walks the DAG in topological order propagating estimated
// document cardinalities and accumulating per-node LLM calls and unit
// costs — defaults refined by whatever evidence the model's feedback
// store holds. baseDocs is the corpus size the source scans. Returns nil
// for nil/cyclic plans.
func EstimatePlan(plan *LogicalPlan, m *cost.Model, baseDocs float64) *cost.PlanEstimate {
	if plan == nil {
		return nil
	}
	order, err := plan.topoOrder()
	if err != nil {
		return nil
	}
	est := &cost.PlanEstimate{}
	outDocs := map[string]float64{}
	for _, idx := range order {
		n := plan.Nodes[idx]
		var in float64
		for _, e := range n.Inputs {
			in += outDocs[e]
		}
		sig := opSignature(n.LogicalOp)
		ne := cost.NodeEstimate{ID: n.ID, Op: n.Op, DocsIn: in}
		var out, calls, units float64
		switch n.Op {
		case OpQueryDatabase:
			out = baseDocs
			if n.Keyword != "" {
				out *= 0.3
			}
			out *= math.Pow(0.5, float64(len(n.Filters)))
			if a, ok := lookupSig(m, sig); ok && a.Count > 0 {
				out = float64(a.DocsOut) / float64(a.Count)
				ne.Observed = true
			}
			units = baseDocs * cost.UnitsPerPredicate
		case OpQueryVectorDatabase:
			k := float64(n.K)
			if k <= 0 {
				k = 20
			}
			out = math.Min(k, baseDocs)
			units = baseDocs * cost.UnitsPerPredicate
		case OpBasicFilter:
			sel, observed := m.Selectivity(n.Op, sig)
			out = in * sel
			units = in * math.Max(float64(len(n.Filters)), 1) * cost.UnitsPerPredicate
			ne.Observed = observed
		case OpLLMFilter, OpLLMFilterCascade:
			// One call per document however many questions it asks; the
			// questions' selectivities multiply (independence).
			out = in
			for _, q := range n.questions() {
				sel, observed := m.Selectivity(n.Op, filterSignature(q))
				out *= sel
				ne.Observed = ne.Observed || observed
			}
			calls = in
			if n.Op == OpLLMFilterCascade {
				calls = in * cost.DefaultEscalationRate
				units = in * cost.UnitsPerProxy * float64(len(n.questions()))
			}
			units += calls * cost.UnitsPerLLMCall
		case OpLLMExtract:
			out = in
			calls = in
			if n.Sections > 0 {
				// One scoped call per document plus the share it has been
				// seen to ask again whole; never less than one.
				if a, ok := lookupSig(m, sig); ok && a.LLMCalls > a.DocsIn && a.DocsIn > 0 {
					calls = in * float64(a.LLMCalls) / float64(a.DocsIn)
					ne.Observed = true
				}
			}
			units = calls * cost.UnitsPerLLMCall
		case OpLLMCluster:
			// k-means over embeddings (docset.LLMCluster): one embedding per
			// document, no model call.
			out = in
			units = in * cost.UnitsPerProxy
		case OpGroupByAggregate:
			out = math.Min(in, defaultGroupCount)
			units = in * cost.UnitsPerPredicate
		case OpTopK, OpLimit:
			out = math.Min(float64(n.K), in)
			units = in * cost.UnitsPerPredicate
		case opDistinct:
			sel, observed := m.Selectivity(n.Op, sig)
			out = in * sel
			units = in * cost.UnitsPerPredicate
			ne.Observed = observed
		case OpLLMGenerate:
			out = 1
			calls = 1
			units = cost.UnitsPerLLMCall
		case OpCount:
			out = 1
		case OpFraction:
			out = 1
			if n.Question != "" {
				calls = in
				units = in * cost.UnitsPerLLMCall
			}
		case OpJoin:
			// Probe-side documents survive (enriched); the build side only
			// constrains them.
			if len(n.Inputs) > 0 {
				out = outDocs[n.Inputs[0]]
			}
			units = in * cost.UnitsPerPredicate
		default:
			out = in
		}
		ne.DocsOut = roundEst(out)
		ne.DocsIn = roundEst(in)
		ne.LLMCalls = roundEst(calls)
		ne.Units = roundEst(units)
		est.Add(ne)
		outDocs[n.ID] = out
	}
	est.LLMCalls = roundEst(est.LLMCalls)
	est.Units = roundEst(est.Units)
	return est
}

// lookupSig fetches observed evidence without the Model's default
// fallback (for estimates that need raw aggregates, e.g. source output
// cardinality).
func lookupSig(m *cost.Model, sig string) (cost.Aggregate, bool) {
	if m == nil || m.Store == nil {
		return cost.Aggregate{}, false
	}
	return m.Store.Lookup(sig)
}

// roundEst keeps estimate JSON readable (two decimals is plenty for
// figures that start from coarse defaults).
func roundEst(v float64) float64 {
	return math.Round(v*100) / 100
}

// ObserveExec records every executed node's measured behaviour into the
// feedback store — the write half of the optimization loop, run after
// each query completes. The plan must be the one Exec's node IDs refer
// to (Result.ExecutedPlan).
func ObserveExec(plan *LogicalPlan, exec *ExecDetail, store *cost.Store) {
	if plan == nil || exec == nil || store == nil {
		return
	}
	for _, n := range plan.Nodes {
		ne := exec.Node(n.ID)
		if ne == nil {
			continue
		}
		r := ne.Runtime
		o := cost.Observation{
			Op:               n.Op,
			Signature:        opSignature(n.LogicalOp),
			DocsIn:           r.DocsIn,
			DocsOut:          r.DocsOut,
			LLMCalls:         r.LLMCalls,
			PromptTokens:     r.PromptTokens,
			CompletionTokens: r.CompletionTokens,
			BusyMS:           r.BusyMS,
		}
		if len(r.Questions) == 0 {
			store.Observe(o)
			continue
		}
		// A fused filter: each question's own verdict counts under its own
		// signature. The node's spend is one call per document for all of
		// them, and rides on the first.
		for _, q := range r.Questions {
			o.Signature, o.DocsIn, o.DocsOut = filterSignature(q.Question), q.Asked, q.Yes
			store.Observe(o)
			o = cost.Observation{Op: n.Op}
		}
	}
}
