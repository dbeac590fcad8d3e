package luna

import (
	"slices"

	"aryn/internal/docset"
	"aryn/internal/llm"
)

// rule is one plan rewrite (§6.1). apply performs the first rewrite it
// finds and reports whether it changed the plan; the driver calls it until
// it reports false. approximate marks a rule whose plan may compute a
// different result from the plan it replaces: only the request's optimize
// flag turns such a rule on.
type rule struct {
	name        string
	approximate bool
	apply       func(p *LogicalPlan) (changed bool)
}

// rules is the one ordered rewrite list, run to fixpoint by applyRules.
// Rewrite runs the exact rules, Optimize all of them. (A test checks the
// table in docs/optimizer.md against it.)
//
// Five are exact, two are approximate. Extract fusion and filter pushdown
// change where work happens, not what it computes; a repeated llmFilter
// cannot change the result; structured predicates and LLM predicates
// commute; a chain of llmFilters is the conjunction of its questions however
// they are asked. Those run on every plan. A cascade escalates to the exact
// llmFilter predicate every document its proxy cannot decide, but its drop
// rung removes a document on embedding similarity alone — on real report
// text it drops documents the model would keep (the counts are pinned by
// core.TestCascadeFalseDrops) — so it waits for optimize. So does a scoped
// extract: it re-asks the whole document only for a field its scope left
// null and the rest of the document mentions, so a value the scope got
// wrong stands (core.TestScopedExtractValues counts none on the benchmark
// corpora; core.TestScopedExtractShapes pins the other field shapes).
var rules = []rule{
	{"fuseExtracts", false, fuseExtracts},
	{"pushFilters", false, pushFilters},
	{"dropDuplicateFilters", false, dropDuplicateFilters},
	{"hoistBasicFilters", false, hoistBasicFilters},
	{"fuseLLMFilters", false, fuseLLMFilters},
	{"insertCascades", true, insertCascades},
	{"scopeExtracts", true, scopeExtracts},
}

// Rewrite applies the exact rules over the DAG and returns a new plan; the
// input is not modified. Every rule operates on nodes and edges, so it
// applies uniformly to chains and join plans.
func Rewrite(plan *LogicalPlan) *LogicalPlan {
	return applyRules(plan, false)
}

// Optimize is Rewrite plus insertCascades and scopeExtracts: the whole rule
// list, since a filter that becomes a cascade can fuse with the cascade it
// now matches. It returns a new plan; the input is not modified. No rule
// consults the feedback store: its evidence feeds the estimates
// (EstimatePlan), not the plan's shape.
func Optimize(plan *LogicalPlan) *LogicalPlan {
	return applyRules(plan, true)
}

// applyRules is the one driver: each selected rule in list order until it
// no longer fires, the whole list again until a round changes nothing (a
// later rule can expose work for an earlier one: a hoisted basicFilter
// lands on its queryDatabase root and pushes down).
func applyRules(plan *LogicalPlan, approximate bool) *LogicalPlan {
	p := plan.Clone()
	p.normalize()
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if r.approximate && !approximate {
				continue
			}
			for r.apply(p) {
				changed = true
			}
		}
	}
	return p
}

// ---- edge surgery ----

// redirect repoints every edge reading from, and the plan output, to to.
func (p *LogicalPlan) redirect(from, to string) {
	for i := range p.Nodes {
		for j, edge := range p.Nodes[i].Inputs {
			if edge == from {
				p.Nodes[i].Inputs[j] = to
			}
		}
	}
	if p.Output == from {
		p.Output = to
	}
}

// splice removes single-input node n from the DAG: its consumers read its
// input instead. Pointers into p.Nodes are invalid afterwards.
func (p *LogicalPlan) splice(n *PlanNode) {
	id := n.ID
	p.redirect(id, n.Inputs[0])
	for i := range p.Nodes {
		if p.Nodes[i].ID == id {
			p.Nodes = append(p.Nodes[:i], p.Nodes[i+1:]...)
			return
		}
	}
}

// swap exchanges adjacent single-input nodes: n consumed up exclusively,
// afterwards up consumes n and n's consumers read up.
func (p *LogicalPlan) swap(n, up *PlanNode) {
	p.redirect(n.ID, up.ID)
	n.Inputs[0], up.Inputs[0] = up.Inputs[0], n.ID
}

// exclusiveEdge returns the first edge up → n, in declaration order of n,
// where n's only input is up, n is up's only consumer, and match accepts
// the pair (nil, nil when there is none).
func (p *LogicalPlan) exclusiveEdge(match func(n, up *PlanNode) bool) (n, up *PlanNode) {
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if len(n.Inputs) != 1 {
			continue
		}
		up := p.node(n.Inputs[0])
		if up != nil && len(p.consumers(up.ID)) == 1 && match(n, up) {
			return n, up
		}
	}
	return nil, nil
}

// ---- rules ----

// fuseExtracts merges an llmExtract into the upstream llmExtract it
// exclusively consumes: one LLM call per document instead of two (§6.1's
// example rewrite). Both must read the same scope of the document.
func fuseExtracts(p *LogicalPlan) bool {
	n, up := p.exclusiveEdge(func(n, up *PlanNode) bool {
		return n.Op == OpLLMExtract && up.Op == OpLLMExtract && up.Sections == n.Sections
	})
	if n == nil {
		return false
	}
	seen := map[string]bool{}
	for _, f := range up.Fields {
		seen[f.Name] = true
	}
	for _, f := range n.Fields {
		if !seen[f.Name] {
			up.Fields = append(up.Fields, f)
		}
	}
	p.splice(n)
	return true
}

// pushFilters folds a basicFilter into the queryDatabase it exclusively
// consumes, so the index evaluates the predicate during the scan.
func pushFilters(p *LogicalPlan) bool {
	n, root := p.exclusiveEdge(func(n, up *PlanNode) bool {
		return n.Op == OpBasicFilter && up.Op == OpQueryDatabase
	})
	if n == nil {
		return false
	}
	root.Filters = append(root.Filters, n.Filters...)
	p.splice(n)
	return true
}

// dropDuplicateFilters removes from an llmFilter every question already
// asked on its ancestor path (asking twice cannot change the result), and
// the node with its last question.
func dropDuplicateFilters(p *LogicalPlan) bool {
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op != OpLLMFilter || len(n.Inputs) != 1 {
			continue
		}
		var fresh []string
		for _, q := range n.questions() {
			if !ancestorAsks(p, n.Inputs[0], q, map[string]bool{}) {
				fresh = append(fresh, q)
			}
		}
		switch len(fresh) {
		case len(n.questions()):
			continue
		case 0:
			p.splice(n)
		default:
			n.setQuestions(fresh)
		}
		return true
	}
	return false
}

// ancestorAsks reports whether the documents reaching node id have
// already passed an llmFilter with the given question. Only probe-side
// lineage counts: documents flowing out of a join derive from its left
// (first) input, so a filter on the right (build) branch constrained
// different documents and must not suppress a downstream duplicate.
func ancestorAsks(p *LogicalPlan, id, question string, seen map[string]bool) bool {
	if seen[id] {
		return false
	}
	seen[id] = true
	n := p.node(id)
	if n == nil {
		return false
	}
	if n.Op == OpLLMFilter && slices.Contains(n.questions(), question) {
		return true
	}
	inputs := n.Inputs
	if n.Op == OpJoin && len(inputs) > 1 {
		inputs = inputs[:1]
	}
	for _, in := range inputs {
		if ancestorAsks(p, in, question, seen) {
			return true
		}
	}
	return false
}

// hoistBasicFilters moves a basicFilter above the LLM operator it
// exclusively consumes, so the cheap predicate runs first; repeated by
// the driver, a filter bubbles past a whole run of LLM operators.
// Structured predicates commute with per-document LLM operators, except
// with an llmExtract that materializes a field the predicate reads (the
// field would not exist yet upstream).
func hoistBasicFilters(p *LogicalPlan) bool {
	f, up := p.exclusiveEdge(func(f, up *PlanNode) bool {
		if f.Op != OpBasicFilter || len(up.Inputs) != 1 {
			return false
		}
		switch up.Op {
		case OpLLMFilter, OpLLMFilterCascade:
			return true
		case OpLLMExtract:
			return !filterReadsExtracted(f.Filters, up.Fields)
		}
		return false
	})
	if f == nil {
		return false
	}
	p.swap(f, up)
	return true
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

// fuseLLMFilters merges an llmFilter (or cascade) into the upstream one of
// the same form and band it exclusively consumes — the fuseExtracts of
// filters. The fused node asks both question lists of each document in one
// stage, which sends the document to the model once instead of once per
// filter and asks only the questions the response cache has no answer to
// (docset.LLMFilter); answers stay keyed per question, so fused and chained
// plans share them. Repeated by the driver, a whole run of adjacent
// filters becomes one node.
func fuseLLMFilters(p *LogicalPlan) bool {
	n, up := p.exclusiveEdge(func(n, up *PlanNode) bool {
		return (n.Op == OpLLMFilter || n.Op == OpLLMFilterCascade) &&
			up.Op == n.Op && up.Low == n.Low && up.High == n.High
	})
	if n == nil {
		return false
	}
	qs := slices.Clone(up.questions())
	for _, q := range n.questions() {
		if !slices.Contains(qs, q) {
			qs = append(qs, q)
		}
	}
	up.setQuestions(qs)
	p.splice(n)
	return true
}

// insertCascades lowers every llmFilter onto a proxy cascade. The default
// band is written into the node so the optimized JSON is self-describing;
// a submitted plan may carry llmFilterCascade nodes with its own band.
func insertCascades(p *LogicalPlan) bool {
	changed := false
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == OpLLMFilter {
			n.Op = OpLLMFilterCascade
			n.Low, n.High = docset.DefaultCascadeLow, docset.DefaultCascadeHigh
			changed = true
		}
	}
	return changed
}

// scopeExtracts points every whole-document llmExtract at the one section
// each of its fields is most likely in (docset.LLMExtractScoped). The scope
// is written into the node, like a cascade's band, so the optimized JSON is
// self-describing.
func scopeExtracts(p *LogicalPlan) bool {
	changed := false
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == OpLLMExtract && n.Sections == 0 {
			n.Sections = 1
			changed = true
		}
	}
	return changed
}

// ---- the §7.2 dedup step ----

// opDistinct is internal (never planner-emitted, but accepted back by
// Validate so users may resubmit plans that carry it).
const opDistinct = "distinct"

// WithDedup returns a copy of plan with a distinct-by-field step
// immediately upstream of its first counting operator in topological
// order (count, fraction, or a count-aggregation). The paper identifies
// the absence of this step as the source of Luna's counting errors
// (§7.2), so it is deliberately not in the rule list; the ablation
// benchmark applies it to measure the fix.
func WithDedup(plan *LogicalPlan, field string) *LogicalPlan {
	p := plan.Clone()
	order, err := p.topoOrder()
	if err != nil {
		return p
	}
	for _, idx := range order {
		n := p.Nodes[idx]
		countLike := n.Op == OpCount || n.Op == OpFraction ||
			(n.Op == OpGroupByAggregate && n.Agg == "count")
		if !countLike || len(n.Inputs) != 1 {
			continue
		}
		d := PlanNode{
			ID:        p.freshID(),
			Inputs:    []string{n.Inputs[0]},
			LogicalOp: LogicalOp{Op: opDistinct, Field: field},
		}
		p.Nodes = append(p.Nodes, d)
		p.node(n.ID).Inputs[0] = d.ID
		break
	}
	return p
}
