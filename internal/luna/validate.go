package luna

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// ErrInvalidPlan wraps all plan validation failures.
var ErrInvalidPlan = errors.New("luna: invalid plan")

// Validate checks a plan structurally (checkStructure: a well-formed DAG
// of known operators) and semantically (required parameters; filter and
// group-by fields must exist in the schema or be produced upstream) — the
// §6.1 validation step that catches LLM hallucinations before execution.
//
// All node-level failures are aggregated with errors.Join rather than
// stopping at the first, so a plan-editing client sees every problem in
// one round trip; the combined error still matches ErrInvalidPlan.
func Validate(plan *LogicalPlan, schema Schema) error {
	// Provenance walk: the set of fields visible at each node is the
	// schema plus everything its ancestors materialized.
	base := map[string]bool{}
	for _, f := range schema.Fields {
		base[f.Name] = true
	}
	visible := map[string]map[string]bool{}

	_, err := checkStructure(plan, func(n PlanNode, addf func(string, ...any)) {
		id := n.ID
		known := fieldsAt(plan, n, visible, base)

		switch n.Op {
		case OpQueryDatabase:
			validFilters(id, n.Filters, known, addf)
		case OpQueryVectorDatabase:
			if n.Query == "" {
				addf("node %s: queryVectorDatabase requires a query", id)
			}
		case OpBasicFilter:
			validFilters(id, n.Filters, known, addf)
		case OpLLMFilter:
			validQuestions(n, addf)
		case OpLLMFilterCascade:
			validQuestions(n, addf)
			if n.High != 0 && n.Low > n.High {
				addf("node %s: llmFilterCascade band is empty (low %g > high %g)", id, n.Low, n.High)
			}
		case OpLLMExtract:
			if len(n.Fields) == 0 {
				addf("node %s: llmExtract requires fields", id)
			}
			if n.Sections != 0 && n.Sections != 1 {
				addf("node %s: llmExtract sections must be 0 (the whole document) or 1, got %d", id, n.Sections)
			}
		case OpGroupByAggregate:
			if n.Key != "" && !known[n.Key] {
				addf("node %s: group key %q not in schema", id, n.Key)
			}
			switch n.Agg {
			case "count":
			case "sum", "avg", "min", "max":
				if n.ValueField == "" || !known[n.ValueField] {
					addf("node %s: aggregate field %q not in schema", id, n.ValueField)
				}
			default:
				addf("node %s: unknown aggregation %q", id, n.Agg)
			}
		case OpLLMCluster:
			if n.K <= 0 {
				addf("node %s: llmCluster requires k > 0", id)
			}
		case OpTopK:
			if n.K <= 0 || n.Field == "" {
				addf("node %s: topK requires field and k > 0", id)
			} else if !known[n.Field] {
				addf("node %s: topK field %q not in schema", id, n.Field)
			}
		case OpLimit:
			if n.K <= 0 {
				addf("node %s: limit requires n > 0", id)
			}
		case OpProject:
			if len(n.ProjectFields) == 0 {
				addf("node %s: project requires fields", id)
			}
			for _, f := range n.ProjectFields {
				if !known[f] {
					addf("node %s: projected field %q not in schema", id, f)
				}
			}
		case opDistinct:
			if n.Field == "" {
				addf("node %s: distinct requires a field", id)
			}
		case OpJoin:
			switch joinKindOrDefault(n.JoinKind) {
			case "inner", "left", "semi", "anti":
			default:
				addf("node %s: unknown join kind %q", id, n.JoinKind)
			}
			if n.LeftKey == "" || n.RightKey == "" {
				addf("node %s: join requires left_key and right_key", id)
			} else if len(n.Inputs) == 2 {
				left := fieldSet(plan, n.Inputs[0], visible, base)
				right := fieldSet(plan, n.Inputs[1], visible, base)
				if !left[n.LeftKey] {
					addf("node %s: join left_key %q not produced by input %s", id, n.LeftKey, n.Inputs[0])
				}
				if !right[n.RightKey] {
					addf("node %s: join right_key %q not produced by input %s", id, n.RightKey, n.Inputs[1])
				}
			}
		}

		visible[id] = produce(plan, n, visible, base)
	})
	return err
}

// checkStructure is the one statement of what a well-formed plan is,
// whatever the schema: unique node IDs, no dangling inputs, no cycles, a
// single output sink every node feeds, the input arity of each operator
// class, known operators only, and count / fraction / llmGenerate nowhere
// but at the output. Validate, Executor.Run and Executor.Compile all go
// through it, so the compiler lowers a checked plan and re-checks nothing.
//
// It returns the plan's topological order, or every fault found joined
// into one error matching ErrInvalidPlan. visit, when non-nil, runs on each
// node in that order after the node's own checks and may add the caller's
// issues (Validate's schema checks) to the same list.
func checkStructure(plan *LogicalPlan, visit func(n PlanNode, addf func(string, ...any))) ([]int, error) {
	if plan == nil || len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("%w: empty plan", ErrInvalidPlan)
	}
	plan.normalize()

	var errs []error
	addf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("%w: "+format, append([]any{ErrInvalidPlan}, args...)...))
	}

	order, terr := plan.topoOrder()
	if terr != nil {
		// Without a topological order there is no walk; report the fault
		// alone.
		addf("%v", terr)
		return nil, errors.Join(errs...)
	}

	// Output resolution: the plan must name (or imply) exactly one sink.
	output := plan.Output
	if output == "" {
		addf("plan has no output node (sinks: %s)", strings.Join(plan.sinks(), ", "))
	} else if plan.node(output) == nil {
		addf("output %q names no node", output)
		output = ""
	} else if len(plan.consumers(output)) > 0 {
		addf("output node %s is consumed by %s and cannot be the result",
			output, strings.Join(plan.consumers(output), ", "))
	}
	for _, sink := range plan.sinks() {
		if sink != output {
			addf("node %s does not feed the output (dangling branch)", sink)
		}
	}

	for _, idx := range order {
		n := plan.Nodes[idx]
		id := n.ID

		// Input arity per operator class.
		switch n.Op {
		case OpQueryDatabase, OpQueryVectorDatabase:
			if len(n.Inputs) != 0 {
				addf("node %s: %s is a source and takes no inputs, got %d", id, n.Op, len(n.Inputs))
			}
		case OpJoin:
			if len(n.Inputs) != 2 {
				addf("node %s: join takes exactly 2 inputs (left, right), got %d", id, len(n.Inputs))
			}
		default:
			if len(n.Inputs) != 1 {
				addf("node %s: %s takes exactly 1 input, got %d", id, n.Op, len(n.Inputs))
			}
		}

		switch n.Op {
		case OpQueryDatabase, OpQueryVectorDatabase, OpJoin, OpBasicFilter,
			OpLLMFilter, OpLLMFilterCascade, OpLLMExtract, OpGroupByAggregate,
			OpLLMCluster, OpTopK, OpLimit, OpProject, opDistinct:
		case OpCount, OpFraction, OpLLMGenerate:
			if id != output {
				addf("node %s: %s must be the output node", id, n.Op)
			}
		default:
			addf("node %s: unknown operator %q", id, n.Op)
		}

		if visit != nil {
			visit(n, addf)
		}
	}
	return order, errors.Join(errs...)
}

// fieldsAt is the field set an operator may reference: the union of what
// its inputs produce (the schema itself for roots).
func fieldsAt(plan *LogicalPlan, n PlanNode, visible map[string]map[string]bool, base map[string]bool) map[string]bool {
	if len(n.Inputs) == 0 {
		return base
	}
	out := map[string]bool{}
	for _, in := range n.Inputs {
		for f := range fieldSet(plan, in, visible, base) {
			out[f] = true
		}
	}
	return out
}

// fieldSet returns the fields a node's output carries (base when the walk
// hasn't reached it, which only happens for nodes already flagged).
func fieldSet(plan *LogicalPlan, id string, visible map[string]map[string]bool, base map[string]bool) map[string]bool {
	if s, ok := visible[id]; ok {
		return s
	}
	return base
}

// produce computes the fields flowing out of a node: its visible inputs
// plus whatever it materializes. Join namespaces right-side fields under
// its prefix (matching docset.Join's merge), except for semi/anti joins,
// which filter without enriching.
func produce(plan *LogicalPlan, n PlanNode, visible map[string]map[string]bool, base map[string]bool) map[string]bool {
	out := map[string]bool{}
	if n.Op == OpJoin && len(n.Inputs) == 2 {
		for f := range fieldSet(plan, n.Inputs[0], visible, base) {
			out[f] = true
		}
		if kind := joinKindOrDefault(n.JoinKind); kind == "inner" || kind == "left" {
			prefix := n.Prefix
			if prefix == "" {
				prefix = "right"
			}
			for f := range fieldSet(plan, n.Inputs[1], visible, base) {
				out[prefix+"."+f] = true
			}
		}
		return out
	}
	for f := range fieldsAt(plan, n, visible, base) {
		out[f] = true
	}
	switch n.Op {
	case OpLLMExtract:
		for _, f := range n.Fields {
			out[f.Name] = true
		}
	case OpGroupByAggregate:
		out["value"] = true
		out["count"] = true
		if n.Key == "" {
			out["group"] = true
		}
	case OpLLMCluster:
		out["cluster_id"] = true
		out["cluster_label"] = true
	}
	return out
}

// validQuestions checks the predicates of an llmFilter / llmFilterCascade
// node: one question, or the fused list of two or more, never both.
func validQuestions(n PlanNode, addf func(string, ...any)) {
	switch {
	case len(n.Questions) == 0:
		if n.Question == "" {
			addf("node %s: %s requires a question", n.ID, n.Op)
		}
	case n.Question != "":
		addf("node %s: %s takes a question or a questions list, not both", n.ID, n.Op)
	case len(n.Questions) < 2 || slices.Contains(n.Questions, ""):
		addf("node %s: %s questions must be two or more non-empty questions", n.ID, n.Op)
	}
}

func validFilters(id string, filters []FilterSpec, known map[string]bool, addf func(string, ...any)) {
	for _, f := range filters {
		if f.Field == "" {
			addf("node %s: filter missing field", id)
			continue
		}
		if !known[f.Field] {
			addf("node %s: filter field %q not in schema", id, f.Field)
		}
		switch f.Kind {
		case "term", "contains", "gte", "lte":
		default:
			addf("node %s: unknown filter kind %q", id, f.Kind)
		}
	}
}

// Issues flattens a Validate error into its individual messages (the
// ErrInvalidPlan prefix stripped), ready to surface as a structured
// {"errors": [...]} array. Wrapping layers (the planner's "plan for %q
// failed validation: %w") are peeled off to reach the aggregated
// node-level errors beneath. Returns nil for nil errors and a
// single-entry slice for non-aggregated errors.
func Issues(err error) []string {
	if err == nil {
		return nil
	}
	var out []string
	var walk func(error)
	walk = func(e error) {
		if multi, ok := e.(interface{ Unwrap() []error }); ok {
			for _, c := range multi.Unwrap() {
				walk(c)
			}
			return
		}
		// A single-wrap layer hiding an aggregate beneath (planner-path
		// wrapping): descend rather than reporting the whole blob.
		if inner := errors.Unwrap(e); inner != nil && hasAggregate(inner) {
			walk(inner)
			return
		}
		out = append(out, strings.TrimPrefix(e.Error(), ErrInvalidPlan.Error()+": "))
	}
	walk(err)
	return out
}

// hasAggregate reports whether an errors.Join aggregate sits anywhere
// down the single-unwrap chain of e.
func hasAggregate(e error) bool {
	for e != nil {
		if _, ok := e.(interface{ Unwrap() []error }); ok {
			return true
		}
		e = errors.Unwrap(e)
	}
	return false
}
