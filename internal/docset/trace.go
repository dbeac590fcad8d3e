package docset

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aryn/internal/llm"
)

// Trace is the execution lineage of one plan run: per-operator input and
// output counts, durations, retries and model calls. Luna surfaces
// this to users for answer auditing (§6.2: "inspecting the data flowing
// out of each of the operators").
type Trace struct {
	Nodes []*NodeTrace
	// Wall is the end-to-end execution time.
	Wall time.Duration
}

// NodeTrace is the lineage record for one operator.
type NodeTrace struct {
	// Name is the operator's display name (e.g. "llmFilter[engine problems]").
	Name string
	// Tag is the logical plan-node ID this operator was compiled from
	// ("" for operators with no logical counterpart, e.g. shared-subtree
	// replay sources). EXPLAIN ANALYZE aggregates runtime stats by tag.
	Tag string
	// In and Out count documents entering and leaving the operator.
	In, Out int64
	// Retries counts transient-failure retries performed.
	Retries int64
	// BackoffNS accumulates nanoseconds spent waiting between retry
	// attempts — time the operator was stalled on backoff, not busy —
	// so EXPLAIN ANALYZE can separate "slow" from "retrying".
	BackoffNS int64
	// FirstOutNS is how long after its pipeline started this operator
	// emitted its first output document (nanoseconds; 0 when it never
	// emitted). Alongside Duration, it is what EXPLAIN ANALYZE shows as
	// first-batch latency: how quickly results began flowing, not just
	// how long the operator stayed busy.
	FirstOutNS int64
	// Batches counts the batches an ExecuteStream sink received; it is
	// recorded on the pipeline's last operator and stays 0 everywhere when
	// no sink is attached.
	Batches int64
	// Err records why this operator failed ("" on success). Execute fills
	// it after the run settles, so partial results stay auditable: the
	// trace shows exactly which node broke and what flowed before it did.
	Err string
	// Duration is the operator's busy time across workers.
	Duration time.Duration
	// LLMCalls, PromptTokens, CompletionTokens, and CacheHits count
	// language-model activity issued by this operator's workers. Calls are
	// attributed at dispatch, so a subtree shared by several consumers
	// reports its usage exactly once no matter how many branches replay
	// its output. Token counts are true upstream spend: responses served
	// from the middleware cache count as a CacheHit with zero tokens.
	LLMCalls         int64
	PromptTokens     int64
	CompletionTokens int64
	CacheHits        int64
	// Escalations and ProxyKept count what a scoped llmExtract's cheap first
	// step settled (zero on every other stage): documents asked again whole
	// because the scoped reply left a field null, and documents answered
	// from their scope.
	Escalations int64
	ProxyKept   int64
	// Questions is the per-question account of an llmFilter stage (nil
	// elsewhere), in the stage's question order.
	Questions []QuestionTrace

	mu sync.Mutex
	// start/end bound the operator's busy window (first work started /
	// last work finished). Zero when the operator never ran work.
	start, end time.Time
	// epoch is when the pipeline began executing; FirstOutNS is measured
	// against it. Set once before the stage goroutines start.
	epoch time.Time
}

// QuestionTrace is one question's share of an llmFilter stage: how many
// documents reached a verdict on it — from a resident answer or the
// model — and how many of those verdicts were yes. A
// document that another question settled first reaches no verdict here, so
// Yes/Asked is the question's own selectivity whichever questions it was
// asked beside. A single-question stage's pair is its In and Out.
type QuestionTrace struct {
	Question   string
	Asked, Yes int64
}

// noteVerdict records one document's verdict on the stage's i-th question.
func (n *NodeTrace) noteVerdict(i int, yes bool) {
	q := &n.Questions[i]
	atomic.AddInt64(&q.Asked, 1)
	if yes {
		atomic.AddInt64(&q.Yes, 1)
	}
}

// wallclock is the package's single sanctioned wall-clock read. Trace
// spans and EXPLAIN ANALYZE timings are observability output, never
// result bytes, so they may see real time — but only through this seam,
// so any new wall-clock read added to an execution path is flagged at
// the point it is introduced.
var wallclock = time.Now //lint:allow determinism trace-only timing seam; spans never reach result bytes

func newNodeTrace(name, tag string) *NodeTrace {
	return &NodeTrace{Name: name, Tag: tag}
}

// newStageTrace is the trace node of one stage of a plan.
func newStageTrace(sp stageSpec) *NodeTrace {
	nt := newNodeTrace(sp.name, sp.tag)
	if len(sp.questions) > 0 {
		nt.Questions = make([]QuestionTrace, len(sp.questions))
		for i, q := range sp.questions {
			nt.Questions[i].Question = q
		}
	}
	return nt
}

// noteFirstOut records the first output emission (no-op afterwards).
func (n *NodeTrace) noteFirstOut() {
	if atomic.LoadInt64(&n.FirstOutNS) != 0 {
		return
	}
	ns := int64(time.Since(n.epoch))
	if ns < 1 {
		ns = 1
	}
	atomic.CompareAndSwapInt64(&n.FirstOutNS, 0, ns)
}

// setErr records the operator's failure under the trace mutex so live
// progress snapshots never race the post-run annotation pass.
func (n *NodeTrace) setErr(msg string) {
	n.mu.Lock()
	n.Err = msg
	n.mu.Unlock()
}

// NodeSnapshot is a race-safe point-in-time copy of an operator's
// progress counters, taken while the pipeline may still be executing. It
// backs live progress reporting (SSE progress events, job phase polling).
type NodeSnapshot struct {
	Name    string
	Tag     string
	In, Out int64
	Batches int64
}

// Snapshot returns a consistent view of the node's progress counters.
func (n *NodeTrace) Snapshot() NodeSnapshot {
	return NodeSnapshot{
		Name:    n.Name,
		Tag:     n.Tag,
		In:      atomic.LoadInt64(&n.In),
		Out:     atomic.LoadInt64(&n.Out),
		Batches: atomic.LoadInt64(&n.Batches),
	}
}

// Snapshots returns race-safe copies of every node's counters, in
// pipeline order — the payload of one live progress observation.
func (t *Trace) Snapshots() []NodeSnapshot {
	out := make([]NodeSnapshot, len(t.Nodes))
	for i, n := range t.Nodes {
		out[i] = n.Snapshot()
	}
	return out
}

// noteSpan records one unit of work: busy time accumulates and the busy
// window widens. The window is what EXPLAIN ANALYZE uses to show that
// independent branches of a plan actually overlapped in wall-clock time.
// queued is the part of [t0, t1] the worker spent waiting for a budget
// slot (workerSlot.queued); it is not busy time.
func (n *NodeTrace) noteSpan(t0, t1 time.Time, queued time.Duration) {
	n.mu.Lock()
	n.Duration += t1.Sub(t0) - queued
	if n.start.IsZero() || t0.Before(n.start) {
		n.start = t0
	}
	if t1.After(n.end) {
		n.end = t1
	}
	n.mu.Unlock()
}

// Window returns the operator's busy window (zero times if it never ran).
func (n *NodeTrace) Window() (start, end time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.start, n.end
}

// String renders the trace as the operator table the CLI shows.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %8s %8s %8s %10s %6s\n", "operator", "in", "out", "retries", "busy", "llm")
	for _, n := range t.Nodes {
		fmt.Fprintf(&sb, "%-40s %8d %8d %8d %10s %6d\n",
			truncName(n.Name, 40), n.In, n.Out, n.Retries, n.Duration.Round(time.Microsecond), n.LLMCalls)
	}
	fmt.Fprintf(&sb, "wall time: %s\n", t.Wall.Round(time.Microsecond))
	return sb.String()
}

// Tagged returns every trace entry compiled from the given logical plan
// node, in pipeline order (a logical operator may lower to several
// physical stages).
func (t *Trace) Tagged(tag string) []*NodeTrace {
	var out []*NodeTrace
	for _, n := range t.Nodes {
		if n.Tag == tag {
			out = append(out, n)
		}
	}
	return out
}

func truncName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// tracingLLM wraps the context's LLM client for one stage, counting every
// call into that stage's trace node.
type tracingLLM struct {
	inner llm.Client
	nt    *NodeTrace
}

// Complete forwards the call and records it against the stage.
func (t *tracingLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := t.inner.Complete(ctx, req)
	if err == nil {
		atomic.AddInt64(&t.nt.LLMCalls, 1)
		atomic.AddInt64(&t.nt.PromptTokens, int64(resp.Usage.PromptTokens))
		atomic.AddInt64(&t.nt.CompletionTokens, int64(resp.Usage.CompletionTokens))
		if resp.FromCache {
			atomic.AddInt64(&t.nt.CacheHits, 1)
		}
	}
	return resp, err
}

// CompleteGroup forwards the group and records it against the stage as
// the one call it is to the operator: its tokens are those of the single
// upstream request it caused, if any, and it is a cache hit when every
// answer it got was resident.
func (t *tracingLLM) CompleteGroup(ctx context.Context, g llm.Group) ([]llm.Response, error) {
	resps, err := llm.CompleteGroup(ctx, t.inner, g)
	if err == nil {
		atomic.AddInt64(&t.nt.LLMCalls, 1)
		hit := true
		for _, r := range resps {
			atomic.AddInt64(&t.nt.PromptTokens, int64(r.Usage.PromptTokens))
			atomic.AddInt64(&t.nt.CompletionTokens, int64(r.Usage.CompletionTokens))
			hit = hit && (r.FromCache || r == llm.Response{})
		}
		if hit {
			atomic.AddInt64(&t.nt.CacheHits, 1)
		}
	}
	return resps, err
}

// Name identifies the backing model.
func (t *tracingLLM) Name() string { return t.inner.Name() }
