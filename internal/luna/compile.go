package luna

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// wallclock is the package's single sanctioned wall-clock read, feeding
// the wall_ms figure in EXPLAIN ANALYZE output. Execution timing is
// observability, never answer bytes; routing it through one seam means
// the determinism analyzer flags any new wall-clock read where it is
// introduced.
var wallclock = time.Now //lint:allow determinism trace-only timing seam; wall_ms never reaches answer bytes

// Executor lowers validated logical plans onto Sycamore DocSet pipelines
// and derives typed answers from the terminal operator (§6.1 Execution).
//
// Independent branches of the physical plan — join build sides, diamond
// prefixes shared by several consumers, extra roots of a multi-root DAG —
// are compiled into docset.Tasks and started together when Run begins, so
// they execute concurrently instead of lazily in topological order. A
// per-query worker budget (docset.Context.QueryScope) splits the
// context's Parallelism across every concurrently-running node, so one
// query draws the same worker footprint from the server's shared pool no
// matter how many branches its plan has.
type Executor struct {
	// EC is the Sycamore execution context (LLM, embedder, parallelism).
	EC *docset.Context
	// Store is the index the plan roots read from.
	Store *index.Store
	// Serial disables branch concurrency: scheduled subtrees run to
	// completion one at a time before the output pipeline executes. For
	// benchmarking (lunabench -joins) and debugging; output is
	// byte-identical either way.
	Serial bool
}

// Result is one executed query: the plan-lifecycle record (Exec's node
// IDs refer to its ExecutedPlan), the typed answer, and the full lineage
// trace for the drill-down UI (§6.2).
type Result struct {
	PlanPreview
	Answer Answer
	// Trace is the merged lineage of every pipeline the query ran: the
	// output pipeline plus each scheduled branch, each operator exactly
	// once.
	Trace *docset.Trace
	// Docs are the terminal documents (for drill-down).
	Docs []*docmodel.Document
	// Exec is the EXPLAIN ANALYZE view: per-plan-node runtime metrics
	// aggregated from the trace (wall/busy time, docs in/out, LLM
	// calls/tokens/cache hits, retries).
	Exec *ExecDetail
	// LLM reports call-middleware activity (cache hits, singleflight
	// collapses, batches) across planning AND execution of this query;
	// nil when the client carries no middleware stack.
	LLM *llm.StackStats
}

// lowered is the physical form of a plan: the output DocSet pipeline, the
// independently-schedulable branch tasks it depends on, plus the
// answer-shaping facts the terminal operator needs.
type lowered struct {
	ds *docset.DocSet
	// tasks are the plan's independent branches (join build sides, shared
	// diamond prefixes) in dependency order; Run starts them all when the
	// query begins so they overlap in wall-clock time.
	tasks []*docset.Task
	// terminal is the last answer-shaping operator on the path to the
	// output (pass-through operators like limit and distinct keep the
	// upstream terminal, matching the historical linear executor).
	terminal LogicalOp
	// keyField is the group key in effect at the output (for table and
	// top-k answer shaping), propagated through the DAG.
	keyField string
}

// lower compiles the DAG onto DocSet pipelines in topological order under
// the given execution context (Run passes a query-scoped context carrying
// the worker budget; Compile passes the bare context). Each node's DocSet
// is built from its inputs'; join lowers onto the physical docset join
// with its build side (the second input) wrapped as a schedulable task.
// count and fraction are answer-shaping terminals: they pass their input
// pipeline through untouched and are resolved after execution. Every
// node's stages are tagged with the node's ID so runtime traces aggregate
// back to plan nodes.
func (e *Executor) lower(ec *docset.Context, plan *LogicalPlan) (*lowered, error) {
	plan.normalize()
	if len(plan.Nodes) == 0 {
		return nil, fmt.Errorf("%w: empty plan", ErrInvalidPlan)
	}
	order, err := plan.topoOrder()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidPlan, err)
	}
	output := plan.Output
	if output == "" {
		return nil, fmt.Errorf("%w: plan has no output node", ErrInvalidPlan)
	}
	if plan.node(output) == nil {
		return nil, fmt.Errorf("%w: output %q names no node", ErrInvalidPlan, output)
	}

	sets := map[string]*docset.DocSet{}
	keys := map[string]string{}
	terminals := map[string]LogicalOp{}
	// Fan-out counts: a node consumed by several downstream operators (a
	// diamond) is materialized with Shared() so its subtree executes once,
	// not once per consumer.
	fanout := map[string]int{}
	for _, n := range plan.Nodes {
		for _, in := range n.Inputs {
			fanout[in]++
		}
	}
	input := func(n PlanNode, i int) (*docset.DocSet, error) {
		if len(n.Inputs) <= i {
			return nil, fmt.Errorf("%w: node %s: %s is missing input %d", ErrInvalidPlan, n.ID, n.Op, i)
		}
		ds := sets[n.Inputs[i]]
		if ds == nil {
			return nil, fmt.Errorf("%w: node %s: input %q not lowered", ErrInvalidPlan, n.ID, n.Inputs[i])
		}
		return ds, nil
	}

	var tasks []*docset.Task
	for _, idx := range order {
		n := plan.Nodes[idx]
		// Inherit answer-shaping facts from the primary input.
		if len(n.Inputs) > 0 {
			keys[n.ID] = keys[n.Inputs[0]]
			terminals[n.ID] = terminals[n.Inputs[0]]
		}
		switch n.Op {
		case OpGroupByAggregate, OpLLMCluster, OpTopK, OpProject,
			OpLLMGenerate, OpCount, OpFraction:
			terminals[n.ID] = n.LogicalOp
		}
		// base is the pipeline this node extends; Tag labels the stages
		// added beyond it with the node's ID.
		var base *docset.DocSet
		switch n.Op {
		case OpQueryDatabase, OpQueryVectorDatabase:
			if len(n.Inputs) != 0 {
				return nil, fmt.Errorf("%w: node %s: %s is a source and takes no inputs", ErrInvalidPlan, n.ID, n.Op)
			}
			root, rerr := e.root(ec, n.LogicalOp)
			if rerr != nil {
				return nil, rerr
			}
			sets[n.ID] = root
		case OpJoin:
			left, lerr := input(n, 0)
			if lerr != nil {
				return nil, lerr
			}
			right, rerr := input(n, 1)
			if rerr != nil {
				return nil, rerr
			}
			// The build side becomes its own scheduled branch: Run starts
			// it when the query begins, so it executes concurrently with
			// the probe side instead of after the probe has drained.
			build := docset.NewTask("join build["+n.Inputs[1]+"]", right)
			tasks = append(tasks, build)
			base = left
			sets[n.ID] = left.JoinTask(build, n.LeftKey, n.RightKey, n.Prefix,
				docset.JoinKind(joinKindOrDefault(n.JoinKind)))
		default:
			in, ierr := input(n, 0)
			if ierr != nil {
				return nil, ierr
			}
			base = in
			switch n.Op {
			case OpBasicFilter:
				sets[n.ID] = in.FilterProps(compileFilters(n.Filters))
			case OpLLMFilter:
				sets[n.ID] = in.LLMFilter(n.questions()...)
			case OpLLMFilterCascade:
				sets[n.ID] = in.LLMFilterCascade(n.questions(), n.Low, n.High)
			case OpLLMExtract:
				sets[n.ID] = in.LLMExtract(n.Fields)
			case OpGroupByAggregate:
				sets[n.ID] = in.GroupByAggregate(n.Key, docset.AggKind(n.Agg), n.ValueField)
				key := n.Key
				if key == "" {
					key = "group"
				}
				keys[n.ID] = key
			case OpLLMCluster:
				sets[n.ID] = in.LLMCluster(n.K, nil, 17)
			case OpTopK:
				sets[n.ID] = in.TopK(n.Field, n.K)
			case OpLimit:
				sets[n.ID] = in.Limit(n.K)
			case opDistinct:
				sets[n.ID] = in.Distinct(n.Field)
			case OpProject:
				sets[n.ID] = in
			case OpLLMGenerate:
				sets[n.ID] = in.Summarize(n.Instruction)
			case OpCount, OpFraction:
				// Answer-shaping terminals: resolved post-execution over
				// the input pipeline's documents.
				if n.ID != output {
					return nil, fmt.Errorf("%w: node %s: %s must be the output node", ErrInvalidPlan, n.ID, n.Op)
				}
				sets[n.ID] = in
			default:
				return nil, fmt.Errorf("%w: node %s: unknown operator %q", ErrInvalidPlan, n.ID, n.Op)
			}
		}
		sets[n.ID] = sets[n.ID].Tag(base, n.ID)
		if fanout[n.ID] > 1 {
			// A diamond prefix: materialize once as a scheduled branch and
			// replay to every consumer.
			shared := sets[n.ID].ShareTask()
			tasks = append(tasks, shared)
			sets[n.ID] = shared.DocSet()
		}
	}
	return &lowered{
		ds:       sets[output],
		tasks:    tasks,
		terminal: terminals[output],
		keyField: keys[output],
	}, nil
}

// Compile lowers the plan and returns the physical Sycamore pipeline
// rendering without executing it — the cheap "inspect what the optimizer
// will run" path of the Plan API.
func (e *Executor) Compile(plan *LogicalPlan) (string, error) {
	low, err := e.lower(e.EC, plan)
	if err != nil {
		return "", err
	}
	return low.ds.PlanString(), nil
}

// StreamHooks observe an execution. Both hooks are optional (the zero
// value observes nothing); they are invoked from executor goroutines while
// the query runs, so implementations must be safe for concurrent use with
// the caller.
type StreamHooks struct {
	// OnPartial receives arrival-order batches of documents as they clear
	// the plan's output node — previews, not the canonical result (the
	// Result returned at the end carries the deterministic documents and
	// the shaped answer).
	OnPartial func(docs []*docmodel.Document)
	// OnTrace receives each pipeline's trace skeleton the moment it
	// starts executing (output pipeline, scheduled branches). Poll
	// NodeTrace.Snapshot for live per-operator progress.
	OnTrace func(*docset.Trace)
}

// Run executes the plan and shapes the answer. Scheduled branches (join
// build sides, shared diamond prefixes) start when execution begins and
// run concurrently with the output pipeline under the query's worker
// budget; with Serial set they run to completion one at a time first.
// While it runs, batches of output documents flow to hooks.OnPartial
// before the tail of the plan finishes, and every pipeline's live trace
// is published to hooks.OnTrace. The Result does not depend on the hooks:
// the canonical output is collected and deterministically ordered after
// the last document arrives.
func (e *Executor) Run(ctx context.Context, plan *LogicalPlan, hooks StreamHooks) (*Result, error) {
	// One worker budget per query: every pipeline lowered under this
	// scope shares Parallelism busy-worker slots, so branch concurrency
	// never multiplies the query's footprint in the server's shared pool.
	qec := e.EC.QueryScope()
	if hooks.OnTrace != nil {
		qec.TraceSink = hooks.OnTrace
	}
	low, err := e.lower(qec, plan)
	if err != nil {
		return nil, err
	}
	// Run on its own knows one form of the plan; Service.run replaces the
	// record with the whole lifecycle.
	res := &Result{PlanPreview: PlanPreview{Rewritten: plan, Compiled: low.ds.PlanString()}}

	llmBefore, hasLLMStats := llm.StatsOf(qec.LLM)
	start := wallclock()
	// Branch goroutines run under a child context so an executor error
	// cancels them, and Join below guarantees none outlives the query.
	tctx, tcancel := context.WithCancel(ctx)
	defer tcancel()
	for _, t := range low.tasks {
		t.Start(tctx)
		if e.Serial {
			// Benchmark/debug mode: drain each branch before the next
			// starts (errors surface through the consumer below).
			t.Join()
		}
	}
	docs, trace, execErr := low.ds.ExecuteStream(tctx, docset.StreamSink(hooks.OnPartial))
	tcancel()
	for _, t := range low.tasks {
		t.Join()
	}
	wall := time.Since(start)

	merged := &docset.Trace{Wall: wall}
	for _, t := range low.tasks {
		if tt := t.Trace(); tt != nil {
			merged.Nodes = append(merged.Nodes, tt.Nodes...)
		}
	}
	if trace != nil {
		merged.Nodes = append(merged.Nodes, trace.Nodes...)
	}
	if hasLLMStats {
		// One query-level middleware delta: per-branch deltas overlap in
		// time when branches run concurrently, so summing them would
		// double-count (the per-node counters in the trace attribute each
		// call exactly once).
		if after, ok := llm.StatsOf(qec.LLM); ok {
			delta := after.Sub(llmBefore)
			merged.LLM = &delta
		}
	}
	res.Trace = merged
	res.Docs = docs
	res.Exec = buildExecDetail(plan, merged, start, wall, qec.Parallelism, len(low.tasks)+1)
	if execErr != nil {
		// Partial result: the trace carries per-node error annotations and
		// docs holds whatever flowed out before the failure. Callers decide
		// whether to degrade (serve what ran, flagged) or fail outright.
		return res, fmt.Errorf("luna: execute: %w", execErr)
	}

	if serr := e.shapeAnswer(ctx, res, low, docs); serr != nil {
		return nil, serr
	}
	return res, nil
}

// shapeAnswer derives the typed answer from the terminal operator over
// the executed documents.
func (e *Executor) shapeAnswer(ctx context.Context, res *Result, low *lowered, docs []*docmodel.Document) error {
	groupKeyField := low.keyField
	switch low.terminal.Op {
	case OpCount:
		res.Answer = NumberAnswer(float64(len(docs)))
	case OpFraction:
		ans, ferr := e.fraction(ctx, docs, low.terminal)
		if ferr != nil {
			return ferr
		}
		res.Answer = ans
	case OpGroupByAggregate:
		key := low.terminal.Key
		if key == "" {
			key = "group"
		}
		res.Answer = tableFromGroups(docs, key)
		if low.terminal.Key == "" && len(docs) == 1 {
			// Global aggregate: a single number.
			if v, ok := docs[0].Properties.Float("value"); ok {
				res.Answer = NumberAnswer(v)
			}
		}
	case OpTopK:
		keys := make([]string, 0, len(docs))
		for _, d := range docs {
			key := d.Property(groupKeyField)
			if key == "" {
				key = d.ID
			}
			keys = append(keys, key)
		}
		res.Answer = ListAnswer(keys...)
	case OpProject:
		res.Answer = projectAnswer(docs, low.terminal.ProjectFields)
	case OpLLMGenerate:
		text := ""
		if len(docs) > 0 {
			text = docs[0].Text
		}
		res.Answer = TextAnswer(text)
	case OpLLMCluster:
		res.Answer = tableFromClusterLabels(docs)
	default:
		ids := make([]string, 0, len(docs))
		for _, d := range docs {
			ids = append(ids, d.ID)
		}
		res.Answer = ListAnswer(ids...)
	}
	return nil
}

// root builds a source DocSet under the given execution context.
func (e *Executor) root(ec *docset.Context, op LogicalOp) (*docset.DocSet, error) {
	switch op.Op {
	case OpQueryDatabase:
		return docset.QueryDatabase(ec, e.Store, index.Query{
			Keyword: op.Keyword,
			Filter:  compileFilters(op.Filters),
		}), nil
	case OpQueryVectorDatabase:
		k := op.K
		if k <= 0 {
			k = 20
		}
		return docset.QueryVectorDatabase(ec, e.Store, op.Query, nil, k), nil
	default:
		return nil, fmt.Errorf("%w: plan must start with a query operator, got %q", ErrInvalidPlan, op.Op)
	}
}

// fraction computes the terminal fraction op: the share of the incoming
// documents satisfying the predicate.
func (e *Executor) fraction(ctx context.Context, docs []*docmodel.Document, op LogicalOp) (Answer, error) {
	if len(docs) == 0 {
		return NumberAnswer(0), nil
	}
	num := docset.FromDocuments(e.EC, docs)
	if op.Question != "" {
		num = num.LLMFilter(op.Question)
	} else if len(op.Filters) > 0 {
		num = num.FilterProps(compileFilters(op.Filters))
	}
	matched, err := num.Count(ctx)
	if err != nil {
		return Answer{}, fmt.Errorf("luna: fraction: %w", err)
	}
	return NumberAnswer(float64(matched) / float64(len(docs))), nil
}

// compileFilters lowers FilterSpecs to an index predicate.
func compileFilters(filters []FilterSpec) index.Predicate {
	if len(filters) == 0 {
		return index.MatchAll()
	}
	preds := make([]index.Predicate, 0, len(filters))
	for _, f := range filters {
		switch f.Kind {
		case "term":
			preds = append(preds, index.Term(f.Field, f.Value))
		case "contains":
			preds = append(preds, index.Contains(f.Field, fmt.Sprintf("%v", f.Value)))
		case "gte":
			v := toFloat(f.Value)
			preds = append(preds, index.Range(f.Field, &v, nil))
		case "lte":
			v := toFloat(f.Value)
			preds = append(preds, index.Range(f.Field, nil, &v))
		}
	}
	return index.And(preds...)
}

func toFloat(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case string:
		var f float64
		fmt.Sscanf(t, "%f", &f)
		return f
	default:
		return 0
	}
}

func tableFromGroups(docs []*docmodel.Document, keyField string) Answer {
	table := make(map[string]float64, len(docs))
	for _, d := range docs {
		key := d.Property(keyField)
		if key == "" {
			key = d.ID
		}
		if v, ok := d.Properties.Float("value"); ok {
			table[key] = v
		}
	}
	return TableAnswer(table)
}

func tableFromClusterLabels(docs []*docmodel.Document) Answer {
	table := map[string]float64{}
	for _, d := range docs {
		label := d.Property("cluster_label")
		if label == "" {
			label = "cluster " + d.Property("cluster_id")
		}
		table[label]++
	}
	return TableAnswer(table)
}

func projectAnswer(docs []*docmodel.Document, fields []string) Answer {
	seen := map[string]bool{}
	var values []string
	for _, d := range docs {
		parts := make([]string, 0, len(fields))
		for _, f := range fields {
			if v := d.Property(f); v != "" {
				parts = append(parts, v)
			}
		}
		v := strings.Join(parts, " / ")
		if v == "" || seen[v] {
			continue
		}
		seen[v] = true
		values = append(values, v)
	}
	a := ListAnswer(values...)
	a.Text = strings.Join(values, "; ")
	return a
}
