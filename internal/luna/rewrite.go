package luna

// RewriteOptions toggles individual rewrite rules, primarily for the
// ablation benchmarks.
type RewriteOptions struct {
	// FuseExtracts merges chained llmExtract operators into one LLM
	// call per document (§6.1's example rewrite).
	FuseExtracts bool
	// PushFilters merges basicFilter predicates into their upstream
	// queryDatabase root so the index evaluates them during the scan.
	PushFilters bool
	// DropDuplicateFilters removes llmFilter nodes repeating a question
	// already asked on their ancestor path.
	DropDuplicateFilters bool
	// DedupByAccident inserts a distinct-by-accident-number step before
	// counting operators. The paper identifies the *absence* of this step
	// as the source of Luna's counting errors (§7.2), so it is OFF by
	// default; the ablation bench turns it on.
	DedupByAccident bool
	// DedupField is the identity field DedupByAccident uses.
	DedupField string
}

// DefaultRewrites returns the rule set Luna runs in production mode.
func DefaultRewrites() RewriteOptions {
	return RewriteOptions{FuseExtracts: true, PushFilters: true, DropDuplicateFilters: true}
}

// Rewrite applies rule-based plan optimization (§6.1) over the DAG and
// returns a new plan; the input is not modified. Every rule operates on
// nodes and edges, so it applies uniformly to chains and join plans.
func Rewrite(plan *LogicalPlan, opts RewriteOptions) *LogicalPlan {
	plan.normalize()
	p := plan.Clone()

	if opts.FuseExtracts {
		fuseExtracts(p)
	}
	if opts.PushFilters {
		pushFilters(p)
	}
	if opts.DropDuplicateFilters {
		dropDuplicateFilters(p)
	}
	if opts.DedupByAccident {
		field := opts.DedupField
		if field == "" {
			field = "accidentNumber"
		}
		insertDedup(p, field)
	}
	return p
}

// splice removes node id from the DAG, reconnecting its consumers to its
// single input (its input's consumers inherit the edge). The node must
// have exactly one input.
func splice(p *LogicalPlan, id string) {
	n := p.node(id)
	if n == nil || len(n.Inputs) != 1 {
		return
	}
	in := n.Inputs[0]
	for i := range p.Nodes {
		for j, edge := range p.Nodes[i].Inputs {
			if edge == id {
				p.Nodes[i].Inputs[j] = in
			}
		}
	}
	if p.Output == id {
		p.Output = in
	}
	for i := range p.Nodes {
		if p.Nodes[i].ID == id {
			p.Nodes = append(p.Nodes[:i], p.Nodes[i+1:]...)
			break
		}
	}
}

// fuseExtracts merges an llmExtract node into an upstream llmExtract it
// exclusively consumes, repeating until no such edge remains.
func fuseExtracts(p *LogicalPlan) {
	for {
		fused := false
		for i := range p.Nodes {
			n := p.Nodes[i]
			if n.Op != OpLLMExtract || len(n.Inputs) != 1 {
				continue
			}
			up := p.node(n.Inputs[0])
			if up == nil || up.Op != OpLLMExtract || len(p.consumers(up.ID)) != 1 {
				continue
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
			splice(p, n.ID)
			fused = true
			break
		}
		if !fused {
			return
		}
	}
}

// pushFilters folds a basicFilter into the queryDatabase it exclusively
// consumes, so the index evaluates the predicate during the scan.
func pushFilters(p *LogicalPlan) {
	for {
		pushed := false
		for i := range p.Nodes {
			n := p.Nodes[i]
			if n.Op != OpBasicFilter || len(n.Inputs) != 1 {
				continue
			}
			root := p.node(n.Inputs[0])
			if root == nil || root.Op != OpQueryDatabase || len(p.consumers(root.ID)) != 1 {
				continue
			}
			root.Filters = append(root.Filters, n.Filters...)
			splice(p, n.ID)
			pushed = true
			break
		}
		if !pushed {
			return
		}
	}
}

// dropDuplicateFilters removes an llmFilter node whose question already
// appears on its ancestor path (asking twice cannot change the result).
func dropDuplicateFilters(p *LogicalPlan) {
	for {
		dropped := false
		for i := range p.Nodes {
			n := p.Nodes[i]
			if n.Op != OpLLMFilter || len(n.Inputs) != 1 {
				continue
			}
			if ancestorAsks(p, n.Inputs[0], n.Question, map[string]bool{}) {
				splice(p, n.ID)
				dropped = true
				break
			}
		}
		if !dropped {
			return
		}
	}
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
	if n.Op == OpLLMFilter && n.Question == question {
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

// insertDedup places a distinct step immediately upstream of the first
// counting operator in topological order (count, fraction, or a
// count-aggregation).
func insertDedup(p *LogicalPlan, field string) {
	order, err := p.topoOrder()
	if err != nil {
		return
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
		return
	}
}

// opDistinct is internal (rewriter-inserted, never planner-emitted, but
// accepted back by Validate so users may resubmit rewritten plans).
const opDistinct = "distinct"

// ExtractFieldsUsed counts LLM calls a plan will make per input document —
// used by the rewrite ablation to show fused plans cost fewer calls.
func ExtractFieldsUsed(plan *LogicalPlan) (extractOps, llmOpsPerDoc int) {
	plan.normalize()
	for _, n := range plan.Nodes {
		switch n.Op {
		case OpLLMExtract:
			extractOps++
			llmOpsPerDoc++
		case OpLLMFilter:
			llmOpsPerDoc++
		}
	}
	return extractOps, llmOpsPerDoc
}
