package luna

import (
	"encoding/json"
	"math"
	"time"

	"aryn/internal/docset"
)

// This file implements the EXPLAIN ANALYZE view of an executed query:
// per-plan-node runtime metrics aggregated from the execution traces, and
// the annotated-plan JSON the Plan API returns as "executed". ZenDB and
// UQE both observe that operator-level runtime measurement is what makes
// an LLM query engine tunable; this is what Luna measures, beside the
// estimate (EstimatePlan) made before the plan ran.

// NodeRuntime is the measured runtime of one logical plan node. A logical
// operator may lower to several physical stages (llmCluster, for
// instance); their metrics are aggregated here.
type NodeRuntime struct {
	// StartMS/EndMS bound the node's busy window as offsets (in
	// milliseconds) from the start of execution. Overlapping windows on
	// nodes of different branches are the observable proof that the
	// branches ran concurrently.
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// WallMS is the width of the busy window; BusyMS is worker-seconds of
	// actual work inside it (BusyMS > WallMS means intra-node
	// parallelism).
	WallMS float64 `json:"wall_ms"`
	BusyMS float64 `json:"busy_ms"`
	// FirstOutMS is how long after its pipeline started this node emitted
	// its first output document — the first-batch latency that shows how
	// quickly results began flowing downstream, as opposed to how long
	// the node stayed busy. Omitted when the node emitted nothing.
	FirstOutMS float64 `json:"first_out_ms,omitempty"`
	// DocsIn and DocsOut count documents entering and leaving the node.
	DocsIn  int64 `json:"docs_in"`
	DocsOut int64 `json:"docs_out"`
	// Retries counts transient LLM failures retried inside the node;
	// BackoffMS is the time the node's workers spent stalled in retry
	// backoff (not counted as busy).
	Retries   int64   `json:"retries,omitempty"`
	BackoffMS float64 `json:"backoff_ms,omitempty"`
	// Error records why the node failed, for partial results served under
	// degraded mode ("" and omitted on success).
	Error string `json:"error,omitempty"`
	// LLM activity dispatched by this node, each call counted exactly
	// once (shared subtrees report on their own nodes, not per consumer).
	// Token counts are true upstream spend: cache hits cost zero tokens.
	LLMCalls         int64 `json:"llm_calls"`
	PromptTokens     int64 `json:"llm_prompt_tokens"`
	CompletionTokens int64 `json:"llm_completion_tokens"`
	CacheHits        int64 `json:"llm_cache_hits"`
	// What a scoped llmExtract's cheap first step settled (omitted on every
	// other node): documents asked again whole (llm_calls counts both asks)
	// and documents answered from their scope. ProxyDropped stays zero (no
	// operator drops on a proxy); readers of these counters bind to it.
	Escalations  int64 `json:"escalations,omitempty"`
	ProxyKept    int64 `json:"proxy_kept,omitempty"`
	ProxyDropped int64 `json:"proxy_dropped,omitempty"`
	// Questions is the per-question account of a fused llmFilter node, in
	// the node's question order (omitted on a single-question node, whose
	// pair is docs_in / docs_out).
	Questions []QuestionRuntime `json:"questions,omitempty"`
}

// QuestionRuntime is one question's share of a fused filter node: the
// documents that reached a verdict on it (resident answer or
// model reply — a document another question settled first reaches none)
// and how many of those verdicts were yes.
type QuestionRuntime struct {
	Question string `json:"question"`
	Asked    int64  `json:"asked"`
	Yes      int64  `json:"yes"`
}

// NodeExec pairs a plan node with its runtime.
type NodeExec struct {
	ID      string      `json:"id"`
	Op      string      `json:"op"`
	Runtime NodeRuntime `json:"runtime"`
}

// ExecDetail is the EXPLAIN ANALYZE summary of one executed query.
type ExecDetail struct {
	// WallMS is end-to-end execution time (planning excluded).
	WallMS float64 `json:"wall_ms"`
	// Budget is the per-query worker budget the scheduler split across
	// concurrently-running nodes.
	Budget int `json:"budget"`
	// Branches is how many pipelines were scheduled (independent subtrees
	// plus the output pipeline).
	Branches int `json:"branches"`
	// Nodes lists runtime per executed plan node in topological order.
	// Nodes that lower to no physical stage (count, project — they shape
	// the answer from their input's documents) are absent.
	Nodes []NodeExec `json:"nodes"`
}

// Node returns the runtime entry for a plan node (nil if the node did not
// lower to physical stages).
func (d *ExecDetail) Node(id string) *NodeExec {
	for i := range d.Nodes {
		if d.Nodes[i].ID == id {
			return &d.Nodes[i]
		}
	}
	return nil
}

// buildExecDetail aggregates a merged execution trace back onto plan
// nodes via stage tags, in the plan's topological order.
func buildExecDetail(plan *LogicalPlan, order []int, trace *docset.Trace, start time.Time, wall time.Duration, budget, branches int) *ExecDetail {
	d := &ExecDetail{
		WallMS:   roundMS(wall),
		Budget:   budget,
		Branches: branches,
	}
	for _, idx := range order {
		n := plan.Nodes[idx]
		nts := trace.Tagged(n.ID)
		if len(nts) == 0 {
			continue
		}
		ne := NodeExec{ID: n.ID, Op: n.Op}
		r := &ne.Runtime
		r.DocsIn = nts[0].In
		r.DocsOut = nts[len(nts)-1].Out
		var first, last time.Time
		for _, nt := range nts {
			r.BusyMS += roundMS(nt.Duration)
			r.Retries += nt.Retries
			r.BackoffMS += roundMS(time.Duration(nt.BackoffNS))
			if fo := nt.FirstOutNS; fo > 0 {
				ms := roundMS(time.Duration(fo))
				if ms == 0 {
					// Sub-precision but real: keep it visibly nonzero.
					ms = 0.001
				}
				if r.FirstOutMS == 0 || ms < r.FirstOutMS {
					r.FirstOutMS = ms
				}
			}
			if nt.Err != "" && r.Error == "" {
				r.Error = nt.Err
			}
			r.LLMCalls += nt.LLMCalls
			r.PromptTokens += nt.PromptTokens
			r.CompletionTokens += nt.CompletionTokens
			r.CacheHits += nt.CacheHits
			r.Escalations += nt.Escalations
			r.ProxyKept += nt.ProxyKept
			if len(nt.Questions) > 1 {
				for _, q := range nt.Questions {
					r.Questions = append(r.Questions, QuestionRuntime(q))
				}
			}
			s, e := nt.Window()
			if !s.IsZero() && (first.IsZero() || s.Before(first)) {
				first = s
			}
			if e.After(last) {
				last = e
			}
		}
		if !first.IsZero() {
			r.StartMS = roundMS(first.Sub(start))
			r.EndMS = roundMS(last.Sub(start))
			r.WallMS = roundMS(last.Sub(first))
		}
		d.Nodes = append(d.Nodes, ne)
	}
	return d
}

func roundMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
}

// execSummary is the query-level half of the annotated-plan wire format:
// ExecDetail minus the per-node list (which is inlined onto the nodes).
type execSummary struct {
	WallMS   float64 `json:"wall_ms"`
	Budget   int     `json:"budget"`
	Branches int     `json:"branches"`
}

// AnnotatedJSON renders the plan in the Plan API wire format with each
// node carrying its measured runtime — the "executed" plan of EXPLAIN
// ANALYZE. Nodes without physical stages carry no runtime object; the
// query-level summary (wall, budget, branches) rides along as "exec".
func (p *LogicalPlan) AnnotatedJSON(d *ExecDetail) string {
	q := *p
	q.normalize()
	type annotatedNode struct {
		PlanNode
		Runtime *NodeRuntime `json:"runtime,omitempty"`
	}
	type annotatedPlan struct {
		Nodes  []annotatedNode `json:"nodes"`
		Output string          `json:"output,omitempty"`
		Exec   *execSummary    `json:"exec,omitempty"`
	}
	out := annotatedPlan{Output: q.Output}
	for _, n := range q.Nodes {
		an := annotatedNode{PlanNode: n}
		if d != nil {
			if ne := d.Node(n.ID); ne != nil {
				rt := ne.Runtime
				an.Runtime = &rt
			}
		}
		out.Nodes = append(out.Nodes, an)
	}
	if d != nil {
		out.Exec = &execSummary{WallMS: d.WallMS, Budget: d.Budget, Branches: d.Branches}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}
