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
	// completion one at a time before the output pipeline executes. The
	// determinism tests' reference path and a debugging aid; output is
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

// lowered is the physical form of a plan: the output DocSet pipeline and
// the independently-schedulable branch tasks it depends on.
type lowered struct {
	ds *docset.DocSet
	// tasks are the plan's independent branches (join build sides, shared
	// diamond prefixes) in dependency order; Run starts them all when the
	// query begins so they overlap in wall-clock time.
	tasks []*docset.Task
	// order is the plan's topological order (node indices).
	order []int
}

// lower checks the plan's structure (checkStructure) and compiles the DAG
// onto DocSet pipelines in topological order under the given execution
// context (Run passes a query-scoped context carrying the worker budget;
// Compile passes the bare context). Each node's DocSet is built from its
// inputs'; join lowers onto the physical docset join with its build side
// (the second input) wrapped as a schedulable task. fraction lowers to the
// filter stage its predicate is — the answer is that stage's pass rate —
// while count and project shape the answer from their input's documents
// and add no stage. Every node's stages are tagged with the node's ID so
// runtime traces aggregate back to plan nodes.
func (e *Executor) lower(ec *docset.Context, plan *LogicalPlan) (*lowered, error) {
	order, err := checkStructure(plan, nil)
	if err != nil {
		return nil, err
	}

	sets := map[string]*docset.DocSet{}
	// Fan-out counts: a node consumed by several downstream operators (a
	// diamond) is materialized with Shared() so its subtree executes once,
	// not once per consumer.
	fanout := map[string]int{}
	for _, n := range plan.Nodes {
		for _, in := range n.Inputs {
			fanout[in]++
		}
	}

	var tasks []*docset.Task
	for _, idx := range order {
		n := plan.Nodes[idx]
		// in is the pipeline this node extends (nil for a source); Tag
		// labels the stages added beyond it with the node's ID.
		var in, out *docset.DocSet
		if len(n.Inputs) > 0 {
			in = sets[n.Inputs[0]]
		}
		switch n.Op {
		case OpQueryDatabase:
			out = docset.QueryDatabase(ec, e.Store, index.Query{
				Keyword: n.Keyword,
				Filter:  compileFilters(n.Filters),
			})
		case OpQueryVectorDatabase:
			k := n.K
			if k <= 0 {
				k = 20
			}
			out = docset.QueryVectorDatabase(ec, e.Store, n.Query, nil, k)
		case OpJoin:
			// The build side becomes its own scheduled branch: Run starts
			// it when the query begins, so it executes concurrently with
			// the probe side instead of after the probe has drained.
			build := docset.NewTask("join build["+n.Inputs[1]+"]", sets[n.Inputs[1]])
			tasks = append(tasks, build)
			out = in.JoinTask(build, n.LeftKey, n.RightKey, n.Prefix,
				docset.JoinKind(joinKindOrDefault(n.JoinKind)))
		case OpBasicFilter:
			out = in.FilterProps(compileFilters(n.Filters))
		case OpLLMFilter:
			out = in.LLMFilter(n.questions()...)
		case OpLLMFilterCascade:
			out = in.LLMFilterCascade(n.questions(), n.Low, n.High)
		case OpLLMExtract:
			if n.Sections > 0 {
				out = in.LLMExtractScoped(n.Fields)
			} else {
				out = in.LLMExtract(n.Fields)
			}
		case OpGroupByAggregate:
			out = in.GroupByAggregate(n.Key, docset.AggKind(n.Agg), n.ValueField)
		case OpLLMCluster:
			out = in.LLMCluster(n.K, nil, 17)
		case OpTopK:
			out = in.TopK(n.Field, n.K)
		case OpLimit:
			out = in.Limit(n.K)
		case opDistinct:
			out = in.Distinct(n.Field)
		case OpLLMGenerate:
			out = in.Summarize(n.Instruction)
		case OpFraction:
			if n.Question != "" {
				out = in.LLMFilter(n.Question)
			} else {
				out = in.FilterProps(compileFilters(n.Filters))
			}
		case OpCount, OpProject:
			out = in
		}
		out = out.Tag(in, n.ID)
		if fanout[n.ID] > 1 {
			// A diamond prefix: materialize once as a scheduled branch and
			// replay to every consumer.
			shared := out.ShareTask()
			tasks = append(tasks, shared)
			out = shared.DocSet()
		}
		sets[n.ID] = out
	}
	return &lowered{ds: sets[plan.Output], tasks: tasks, order: order}, nil
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
			// Reference/debug mode: drain each branch before the next
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
	res.Exec = buildExecDetail(plan, low.order, merged, start, wall, qec.Parallelism, len(low.tasks)+1)
	if execErr != nil {
		// Partial result: the trace carries per-node error annotations and
		// docs holds whatever flowed out before the failure. Callers decide
		// whether to degrade (serve what ran, flagged) or fail outright.
		return res, fmt.Errorf("luna: execute: %w", execErr)
	}
	res.Answer = shapeAnswer(plan, res.Exec, docs)
	return res, nil
}

// shaping are the operators that decide the answer's type; every other
// operator passes its primary input's shape through.
var shaping = map[string]bool{
	OpGroupByAggregate: true, OpLLMCluster: true, OpTopK: true, OpProject: true,
	OpLLMGenerate: true, OpCount: true, OpFraction: true,
}

// upstream walks primary inputs up from node id (inclusive) to the nearest
// node match accepts (nil when the walk reaches a source without one).
func (p *LogicalPlan) upstream(id string, match func(*PlanNode) bool) *PlanNode {
	for n := p.node(id); ; n = p.node(n.Inputs[0]) {
		if match(n) {
			return n
		}
		if len(n.Inputs) == 0 {
			return nil
		}
	}
}

// shapeAnswer derives the typed answer from the executed documents and the
// plan's terminal: the nearest answer-shaping operator at or above the
// output (pass-through operators like limit and distinct keep the upstream
// shape). A plan without one answers with its documents' IDs.
func shapeAnswer(plan *LogicalPlan, exec *ExecDetail, docs []*docmodel.Document) Answer {
	terminal := plan.upstream(plan.Output, func(n *PlanNode) bool { return shaping[n.Op] })
	if terminal == nil {
		ids := make([]string, 0, len(docs))
		for _, d := range docs {
			ids = append(ids, d.ID)
		}
		return ListAnswer(ids...)
	}
	switch terminal.Op {
	case OpCount:
		return NumberAnswer(float64(len(docs)))
	case OpFraction:
		// The node ran as a filter stage: its answer is the stage's pass rate.
		r := exec.Node(terminal.ID).Runtime
		if r.DocsIn == 0 {
			return NumberAnswer(0)
		}
		return NumberAnswer(float64(r.DocsOut) / float64(r.DocsIn))
	case OpGroupByAggregate:
		if terminal.Key == "" && len(docs) == 1 {
			// Global aggregate: a single number.
			if v, ok := docs[0].Properties.Float("value"); ok {
				return NumberAnswer(v)
			}
		}
		return tableFromGroups(docs, groupKey(terminal))
	case OpTopK:
		// Rows are named by the group key in effect above the topK.
		keyField := ""
		if g := plan.upstream(terminal.ID, func(n *PlanNode) bool { return n.Op == OpGroupByAggregate }); g != nil {
			keyField = groupKey(g)
		}
		keys := make([]string, 0, len(docs))
		for _, d := range docs {
			key := d.Property(keyField)
			if key == "" {
				key = d.ID
			}
			keys = append(keys, key)
		}
		return ListAnswer(keys...)
	case OpProject:
		return projectAnswer(docs, terminal.ProjectFields)
	case OpLLMGenerate:
		text := ""
		if len(docs) > 0 {
			text = docs[0].Text
		}
		return TextAnswer(text)
	default: // OpLLMCluster
		return tableFromClusterLabels(docs)
	}
}

// groupKey is the property a groupByAggregate node's rows carry their group
// under.
func groupKey(n *PlanNode) string {
	if n.Key == "" {
		return "group"
	}
	return n.Key
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
