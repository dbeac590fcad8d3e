package luna

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"aryn/internal/cost"
	"aryn/internal/docset"
	"aryn/internal/llm"
)

// This file implements the cost-based optimize phase that runs after the
// rule-based Rewrite: commuting operators are reordered so cheap
// predicates run before LLM operators, llmFilter chains are ordered most
// selective first using feedback-store evidence, and llmFilter nodes are
// lowered onto proxy cascades that screen documents with embedding
// similarity before spending an LLM call. All three transformations are
// result-preserving: filters commute, and the cascade escalates to the
// exact llmFilter predicate for every document it cannot decide cheaply.

// CascadeOptions configures proxy-cascade insertion during optimization.
type CascadeOptions struct {
	// Enabled turns llmFilter nodes into llmFilterCascade nodes.
	Enabled bool
	// Low and High are the proxy threshold band written into the rewritten
	// nodes; values <= 0 select the docset defaults.
	Low, High float64
}

// DefaultCascade returns the production cascade configuration.
func DefaultCascade() CascadeOptions {
	return CascadeOptions{Enabled: true, Low: docset.DefaultCascadeLow, High: docset.DefaultCascadeHigh}
}

// Optimizer is the cost-based optimize phase. A nil Model (or a model
// with an empty store) still optimizes — hoisting and cascades need no
// evidence — it just cannot reorder llmFilter chains, which requires
// observed selectivities to beat the stable default order.
type Optimizer struct {
	Model   *cost.Model
	Cascade CascadeOptions
}

// Optimize applies the cost-based phase over the DAG and returns a new
// plan; the input is not modified. Transformations, in order:
//
//  1. hoist basicFilter nodes above adjacent LLM operators (exact:
//     structured predicates commute with per-document LLM transforms
//     unless the predicate reads a field the transform materializes);
//  2. re-run the pushFilters rule, since a hoisted filter may now sit on
//     its queryDatabase root and fold into the index scan;
//  3. order consecutive llmFilter chains most-selective-first by
//     feedback-store evidence (stable: unobserved filters keep their
//     planner order);
//  4. lower llmFilter nodes onto proxy cascades (when Cascade.Enabled).
func (o *Optimizer) Optimize(plan *LogicalPlan) *LogicalPlan {
	plan.normalize()
	p := plan.Clone()
	hoistBasicFilters(p)
	pushFilters(p)
	reorderLLMFilters(p, o.Model)
	if o.Cascade.Enabled {
		insertCascades(p, o.Cascade)
	}
	return p
}

// hoistBasicFilters moves a basicFilter above the LLM operator it
// exclusively consumes, repeating to fixpoint so a filter bubbles past a
// whole run of LLM operators. Hoisting past llmExtract is skipped when
// the filter reads any field the extract materializes (the field would
// not exist yet upstream).
func hoistBasicFilters(p *LogicalPlan) {
	for {
		hoisted := false
		for i := range p.Nodes {
			f := &p.Nodes[i]
			if f.Op != OpBasicFilter || len(f.Inputs) != 1 {
				continue
			}
			up := p.node(f.Inputs[0])
			if up == nil || len(up.Inputs) != 1 {
				continue
			}
			if cs := p.consumers(up.ID); len(cs) != 1 || cs[0] != f.ID {
				continue
			}
			switch up.Op {
			case OpLLMFilter, OpLLMFilterCascade:
				// Pure per-document predicates: always commute.
			case OpLLMExtract:
				if filterReadsExtracted(f.Filters, up.Fields) {
					continue
				}
			default:
				continue
			}
			swapAboveSingle(p, f, up)
			hoisted = true
			break
		}
		if !hoisted {
			return
		}
	}
}

// filterReadsExtracted reports whether any filter predicate reads a
// field the llmExtract materializes.
func filterReadsExtracted(filters []FilterSpec, fields []llm.FieldSpec) bool {
	produced := map[string]bool{}
	for _, f := range fields {
		produced[f.Name] = true
	}
	for _, f := range filters {
		if produced[f.Field] {
			return true
		}
	}
	return false
}

// swapAboveSingle swaps adjacent single-input nodes f and up (f currently
// consumes up; afterwards up consumes f). up must have no consumer other
// than f.
func swapAboveSingle(p *LogicalPlan, f, up *PlanNode) {
	x := up.Inputs[0]
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.ID == f.ID || n.ID == up.ID {
			continue
		}
		for j, edge := range n.Inputs {
			if edge == f.ID {
				n.Inputs[j] = up.ID
			}
		}
	}
	if p.Output == f.ID {
		p.Output = up.ID
	}
	f.Inputs[0] = x
	up.Inputs[0] = f.ID
}

// reorderLLMFilters orders each maximal chain of consecutive llmFilter
// nodes most-selective-first using feedback-store evidence. The sort is
// stable and unobserved filters carry the default selectivity, so a cold
// store leaves the planner's order untouched; as observations accumulate
// the cheaper-to-satisfy predicate drifts to the front, which shrinks
// the document flow into the later (equally expensive) filters.
func reorderLLMFilters(p *LogicalPlan, m *cost.Model) {
	for i := range p.Nodes {
		head := &p.Nodes[i]
		if head.Op != OpLLMFilter || len(head.Inputs) != 1 {
			continue
		}
		if up := p.node(head.Inputs[0]); up != nil && up.Op == OpLLMFilter {
			if cs := p.consumers(up.ID); len(cs) == 1 {
				continue // not a chain head: an llmFilter feeds it exclusively
			}
		}
		chain := []*PlanNode{head}
		for {
			cur := chain[len(chain)-1]
			cs := p.consumers(cur.ID)
			if len(cs) != 1 {
				break
			}
			next := p.node(cs[0])
			if next == nil || next.Op != OpLLMFilter || len(next.Inputs) != 1 {
				break
			}
			chain = append(chain, next)
		}
		if len(chain) < 2 {
			continue
		}
		ordered := append([]*PlanNode(nil), chain...)
		sel := func(n *PlanNode) float64 {
			s, _ := m.Selectivity(OpLLMFilter, opSignature(n.LogicalOp))
			return s
		}
		sort.SliceStable(ordered, func(a, b int) bool { return sel(ordered[a]) < sel(ordered[b]) })
		changed := false
		for j := range chain {
			if chain[j].ID != ordered[j].ID {
				changed = true
				break
			}
		}
		if !changed {
			continue
		}
		// Relink: the chain's upstream feeds the new head, members link in
		// the new order, and external consumers of the old tail (plus the
		// plan output) move to the new tail. Interior members have no
		// external consumers by construction.
		upstream := chain[0].Inputs[0]
		oldTail, newTail := chain[len(chain)-1], ordered[len(ordered)-1]
		chainIDs := map[string]bool{}
		for _, n := range chain {
			chainIDs[n.ID] = true
		}
		for k := range p.Nodes {
			n := &p.Nodes[k]
			if chainIDs[n.ID] {
				continue
			}
			for j, edge := range n.Inputs {
				if edge == oldTail.ID {
					n.Inputs[j] = newTail.ID
				}
			}
		}
		if p.Output == oldTail.ID {
			p.Output = newTail.ID
		}
		ordered[0].Inputs[0] = upstream
		for j := 1; j < len(ordered); j++ {
			ordered[j].Inputs[0] = ordered[j-1].ID
		}
	}
}

// insertCascades lowers every llmFilter node onto a proxy cascade with
// the configured threshold band (explicit values are written into the
// plan so the optimized JSON is self-describing).
func insertCascades(p *LogicalPlan, opts CascadeOptions) {
	low, high := opts.Low, opts.High
	if low <= 0 {
		low = docset.DefaultCascadeLow
	}
	if high <= 0 {
		high = docset.DefaultCascadeHigh
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op != OpLLMFilter {
			continue
		}
		n.Op = OpLLMFilterCascade
		n.Low, n.High = low, high
	}
}

// opSignature identifies an operator instance across queries for the
// feedback store: the operator name plus its semantically load-bearing
// parameters. llmFilter and llmFilterCascade share a signature — they
// evaluate the same predicate, so selectivity evidence transfers between
// the plain and cascaded forms.
func opSignature(op LogicalOp) string {
	switch op.Op {
	case OpLLMFilter, OpLLMFilterCascade:
		return "llmFilter|" + op.Question
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
	plan.normalize()
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
		case OpLLMFilter:
			sel, observed := m.Selectivity(n.Op, sig)
			out = in * sel
			calls = in
			units = calls * cost.UnitsPerLLMCall
			ne.Observed = observed
		case OpLLMFilterCascade:
			sel, observed := m.Selectivity(n.Op, sig)
			out = in * sel
			calls = in * cost.DefaultEscalationRate
			units = in*cost.UnitsPerProxy + calls*cost.UnitsPerLLMCall
			ne.Observed = observed
		case OpLLMExtract:
			out = in
			calls = in
			units = calls * cost.UnitsPerLLMCall
		case OpLLMCluster:
			out = in
			calls = in
			units = calls * cost.UnitsPerLLMCall
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
	plan.normalize()
	for _, n := range plan.Nodes {
		ne := exec.Node(n.ID)
		if ne == nil {
			continue
		}
		r := ne.Runtime
		store.Observe(cost.Observation{
			Op:               n.Op,
			Signature:        opSignature(n.LogicalOp),
			DocsIn:           r.DocsIn,
			DocsOut:          r.DocsOut,
			LLMCalls:         r.LLMCalls,
			PromptTokens:     r.PromptTokens,
			CompletionTokens: r.CompletionTokens,
			BusyMS:           r.BusyMS,
		})
	}
}
