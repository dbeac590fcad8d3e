package luna

import "math"

// This file is the cost model behind the plan estimates /v1/plan prints
// beside the plan: relative unit costs, default selectivities, and the
// pre-execution walk over the DAG. An estimate is a pure function of the
// plan and the corpus size; no rewrite rule consults it (rewrite.go).

// Relative unit costs, calibrated so one LLM round-trip dwarfs any
// amount of predicate evaluation — the paper's core economics. The
// absolute numbers are arbitrary; only the ratios matter.
const (
	// UnitsPerLLMCall is the unit cost of one LLM round-trip.
	UnitsPerLLMCall = 100.0
	// UnitsPerPredicate is the unit cost of evaluating one structured
	// predicate (or index probe) on one document.
	UnitsPerPredicate = 0.01
	// UnitsPerProxy is the unit cost of one embedding per document (vector
	// arithmetic; far cheaper than an LLM call, pricier than a property
	// compare).
	UnitsPerProxy = 1.0
)

// NodeEstimate is one plan node's cost estimate, wire-stable for
// embedding in /v1/plan responses and EXPLAIN output.
type NodeEstimate struct {
	ID string `json:"id"`
	Op string `json:"op"`
	// DocsIn/DocsOut are the estimated document counts crossing the node.
	DocsIn  float64 `json:"docs_in"`
	DocsOut float64 `json:"docs_out"`
	// LLMCalls is the estimated number of LLM round-trips the node makes.
	LLMCalls float64 `json:"llm_calls"`
	// Units is the node's estimated cost in abstract units
	// (UnitsPerLLMCall per call + cheap per-document work).
	Units float64 `json:"units"`
}

// PlanEstimate is a whole plan's cost estimate: per-node figures in
// topological order plus plan-level totals.
type PlanEstimate struct {
	Nodes []NodeEstimate `json:"nodes"`
	// LLMCalls/Units are the totals across all nodes.
	LLMCalls float64 `json:"llm_calls"`
	Units    float64 `json:"units"`
}

// Add folds a node estimate into the plan totals.
func (p *PlanEstimate) Add(n NodeEstimate) {
	p.Nodes = append(p.Nodes, n)
	p.LLMCalls += n.LLMCalls
	p.Units += n.Units
}

// defaultGroupCount is the assumed group cardinality for aggregation
// estimates.
const defaultGroupCount = 8

// EstimatePlan walks the DAG in topological order propagating estimated
// document cardinalities over default selectivities (a filter keeps half
// its input, per question for an llmFilter; distinct keeps 90%) and
// accumulating per-node LLM calls and unit costs. baseDocs is the corpus
// size the source scans. Returns nil for nil/cyclic plans.
func EstimatePlan(plan *LogicalPlan, baseDocs float64) *PlanEstimate {
	if plan == nil {
		return nil
	}
	order, err := plan.topoOrder()
	if err != nil {
		return nil
	}
	est := &PlanEstimate{}
	outDocs := map[string]float64{}
	for _, idx := range order {
		n := plan.Nodes[idx]
		var in float64
		for _, e := range n.Inputs {
			in += outDocs[e]
		}
		var out, calls, units float64
		switch n.Op {
		case OpQueryDatabase:
			out = baseDocs
			if n.Keyword != "" {
				out *= 0.3
			}
			out *= math.Pow(0.5, float64(len(n.Filters)))
			units = baseDocs * UnitsPerPredicate
		case OpQueryVectorDatabase:
			k := float64(n.K)
			if k <= 0 {
				k = 20
			}
			out = math.Min(k, baseDocs)
			units = baseDocs * UnitsPerPredicate
		case OpBasicFilter:
			out = in * 0.5
			units = in * math.Max(float64(len(n.Filters)), 1) * UnitsPerPredicate
		case OpLLMFilter:
			// One call per document however many questions it asks; the
			// questions' selectivities multiply (independence).
			out = in * math.Pow(0.5, float64(len(n.questions())))
			calls = in
			units = calls * UnitsPerLLMCall
		case OpLLMExtract:
			// One call per document; a scoped extract's escalations are
			// not known before it runs.
			out = in
			calls = in
			units = calls * UnitsPerLLMCall
		case OpLLMCluster:
			// k-means over embeddings (docset.LLMCluster): one embedding per
			// document, no model call.
			out = in
			units = in * UnitsPerProxy
		case OpGroupByAggregate:
			out = math.Min(in, defaultGroupCount)
			units = in * UnitsPerPredicate
		case OpTopK, OpLimit:
			out = math.Min(float64(n.K), in)
			units = in * UnitsPerPredicate
		case opDistinct:
			out = in * 0.9
			units = in * UnitsPerPredicate
		case OpLLMGenerate:
			out = 1
			calls = 1
			units = UnitsPerLLMCall
		case OpCount:
			out = 1
		case OpFraction:
			out = 1
			if n.Question != "" {
				calls = in
				units = in * UnitsPerLLMCall
			}
		case OpJoin:
			// Probe-side documents survive (enriched); the build side only
			// constrains them.
			if len(n.Inputs) > 0 {
				out = outDocs[n.Inputs[0]]
			}
			units = in * UnitsPerPredicate
		default:
			out = in
		}
		est.Add(NodeEstimate{
			ID: n.ID, Op: n.Op,
			DocsIn: roundEst(in), DocsOut: roundEst(out),
			LLMCalls: roundEst(calls), Units: roundEst(units),
		})
		outDocs[n.ID] = out
	}
	est.LLMCalls = roundEst(est.LLMCalls)
	est.Units = roundEst(est.Units)
	return est
}

// roundEst keeps estimate JSON readable (two decimals is plenty for
// figures that start from coarse defaults).
func roundEst(v float64) float64 {
	return math.Round(v*100) / 100
}
