package luna

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// diamondPlan fans the scan out to two filter branches and joins them
// back — the canonical shape whose branches the scheduler overlaps.
func diamondPlan() *LogicalPlan {
	return &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "Does the document indicate substantial damage?"}},
			{ID: "n3", Inputs: []string{"n1"}, LogicalOp: LogicalOp{
				Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "gte", Value: 1}}}},
			{ID: "n4", Inputs: []string{"n2", "n3"}, LogicalOp: LogicalOp{
				Op: OpJoin, LeftKey: "accidentNumber", RightKey: "accidentNumber", Prefix: "r"}},
		},
		Output: "n4",
	}
}

// modelStagePlan runs three per-document model operators back to back
// over a corpus wider than one window of in-flight calls: the shape on
// which a model stage's concurrency exceeds Parallelism. Its output is the
// surviving documents themselves, so their order is part of the bytes.
func modelStagePlan() *LogicalPlan {
	return &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "m1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "m2", Inputs: []string{"m1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilterCascade, Question: "Does the document indicate substantial damage?", Low: 0.01}},
			{ID: "m3", Inputs: []string{"m2"}, LogicalOp: LogicalOp{
				Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "weather_related", Type: "bool"}}}},
			{ID: "m4", Inputs: []string{"m3"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "Does the document mention a landing?"}},
		},
		Output: "m4",
	}
}

// wideFixture is executorFixture over 150 documents.
func wideFixture(t *testing.T) *Executor {
	t.Helper()
	store := index.NewStore()
	for i := 0; i < 150; i++ {
		d := docmodel.New(fmt.Sprintf("W%03d", i))
		d.SetProperty("accidentNumber", d.ID)
		d.SetProperty("us_state", []string{"KY", "CA", "TX", "AK"}[i%4])
		d.Text = fmt.Sprintf("Flight %d: %s", i, []string{
			"a hard landing in gusting wind resulted in substantial damage to the landing gear.",
			"the airplane struck a flock of geese after takeoff; minor damage.",
			"the engine lost power in cruise and the forced landing caused substantial damage.",
		}[i%3])
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	return &Executor{Store: store}
}

// runPlan executes plan on ex at the given parallelism and returns the
// result plus a byte-stable rendering of its output.
func runPlan(t *testing.T, ex *Executor, plan *LogicalPlan, parallelism int, serial bool) (*Result, string) {
	t.Helper()
	ex.EC = docset.NewContext(docset.WithLLM(llm.NewSim(1)), docset.WithParallelism(parallelism))
	ex.Serial = serial
	res, err := ex.Run(context.Background(), plan, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := json.Marshal(res.Docs)
	return res, res.Answer.String() + "\n" + string(docs)
}

// runDiamond executes the diamond over the three-document fixture.
func runDiamond(t *testing.T, parallelism int, serial bool) (*Result, string) {
	t.Helper()
	ex, _ := executorFixture(t)
	return runPlan(t, ex, diamondPlan(), parallelism, serial)
}

// The determinism guarantee of the scheduler: a plan executed with branch
// concurrency under budgets 1 and N — and with the scheduler forced
// serial — yields byte-identical output and a stable executed node set,
// for the diamond and for a chain of model stages whose calls in flight
// outnumber the budget.
func TestDiamondDeterministicAcrossBudgetsAndScheduling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fixture func(*testing.T) *Executor
		plan    *LogicalPlan
		// nodes must all report runtime: the shared scan, both branches
		// and the join of the diamond; every operator of the chain.
		nodes []string
	}{
		{"diamond", func(t *testing.T) *Executor { ex, _ := executorFixture(t); return ex }, diamondPlan(), []string{"n1", "n2", "n3", "n4"}},
		{"model stages", wideFixture, modelStagePlan(), []string{"m1", "m2", "m3", "m4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resOne, outOne := runPlan(t, tc.fixture(t), tc.plan, 1, false)
			resMany, outMany := runPlan(t, tc.fixture(t), tc.plan, 8, false)
			_, outSerial := runPlan(t, tc.fixture(t), tc.plan, 8, true)

			if outOne != outMany {
				t.Error("budget 1 vs 8 output differs")
			}
			if outMany != outSerial {
				t.Error("concurrent vs serial output differs")
			}

			nodeSet := func(d *ExecDetail) string {
				ids := make([]string, 0, len(d.Nodes))
				for _, n := range d.Nodes {
					ids = append(ids, n.ID)
				}
				return strings.Join(ids, ",")
			}
			if resOne.Exec == nil || resMany.Exec == nil {
				t.Fatal("ExecDetail missing")
			}
			if nodeSet(resOne.Exec) != nodeSet(resMany.Exec) {
				t.Errorf("executed node set unstable: %q vs %q", nodeSet(resOne.Exec), nodeSet(resMany.Exec))
			}
			for _, id := range tc.nodes {
				if resMany.Exec.Node(id) == nil {
					t.Errorf("node %s missing from executed set (%s)", id, nodeSet(resMany.Exec))
				}
			}
		})
	}
}

// ExecDetail must carry real per-node metrics: docs in/out, LLM calls on
// exactly the LLM nodes, budget, and branch count.
func TestExecDetailMetrics(t *testing.T) {
	res, _ := runDiamond(t, 4, false)
	d := res.Exec
	if d.Budget != 4 {
		t.Errorf("budget = %d, want 4", d.Budget)
	}
	// Branches: shared scan + join build + output pipeline.
	if d.Branches != 3 {
		t.Errorf("branches = %d, want 3", d.Branches)
	}
	scan := d.Node("n1")
	if scan == nil || scan.Runtime.DocsOut != 3 {
		t.Fatalf("scan runtime = %+v, want 3 docs out", scan)
	}
	lf := d.Node("n2")
	if lf == nil || lf.Runtime.LLMCalls != 3 {
		t.Fatalf("llmFilter runtime = %+v, want 3 LLM calls (one per doc)", lf)
	}
	if bf := d.Node("n3"); bf == nil || bf.Runtime.LLMCalls != 0 {
		t.Errorf("basicFilter should make no LLM calls: %+v", bf)
	}
	if d.WallMS <= 0 {
		t.Errorf("wall = %v, want > 0", d.WallMS)
	}
	// The trace's per-node counters sum to the same calls the detail
	// reports — each call attributed exactly once.
	var traceCalls int64
	for _, nt := range res.Trace.Nodes {
		traceCalls += nt.LLMCalls
	}
	var detailCalls int64
	for _, n := range d.Nodes {
		detailCalls += n.Runtime.LLMCalls
	}
	if traceCalls != detailCalls {
		t.Errorf("trace calls %d != detail calls %d", traceCalls, detailCalls)
	}
}

// The annotated-plan JSON carries a runtime object per physical node and
// the query-level exec summary.
func TestAnnotatedJSON(t *testing.T) {
	res, _ := runDiamond(t, 4, false)
	var parsed struct {
		Nodes []struct {
			ID      string       `json:"id"`
			Op      string       `json:"op"`
			Runtime *NodeRuntime `json:"runtime"`
		} `json:"nodes"`
		Output string `json:"output"`
		Exec   *struct {
			Budget   int `json:"budget"`
			Branches int `json:"branches"`
		} `json:"exec"`
	}
	if err := json.Unmarshal([]byte(res.Rewritten.AnnotatedJSON(res.Exec)), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Output != "n4" || len(parsed.Nodes) != 4 {
		t.Fatalf("annotated plan shape: %+v", parsed)
	}
	for _, n := range parsed.Nodes {
		if n.Runtime == nil {
			t.Errorf("node %s missing runtime", n.ID)
		}
	}
	if parsed.Exec == nil || parsed.Exec.Budget != 4 || parsed.Exec.Branches != 3 {
		t.Errorf("exec summary = %+v", parsed.Exec)
	}
}

// rendezvousLLM blocks the first left-branch call and the first
// right-branch call until both are in flight: a deterministic proof that
// the scheduler executes independent plan branches concurrently. Under
// serial branch execution the calls could never be in flight together and
// the rendezvous times out with an error.
type rendezvousLLM struct {
	inner   llm.Client
	timeout time.Duration

	mu   sync.Mutex
	seen map[string]bool
	both chan struct{}
}

func newRendezvousLLM(inner llm.Client, timeout time.Duration) *rendezvousLLM {
	return &rendezvousLLM{inner: inner, timeout: timeout, seen: map[string]bool{}, both: make(chan struct{})}
}

func (r *rendezvousLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	side := ""
	if strings.Contains(req.Prompt, "LEFTMARK") {
		side = "L"
	} else if strings.Contains(req.Prompt, "RIGHTMARK") {
		side = "R"
	}
	if side != "" {
		r.mu.Lock()
		r.seen[side] = true
		if r.seen["L"] && r.seen["R"] {
			select {
			case <-r.both:
			default:
				close(r.both)
			}
		}
		r.mu.Unlock()
		select {
		case <-r.both:
		case <-time.After(r.timeout):
			return llm.Response{}, fmt.Errorf("rendezvous: branches did not overlap within %s", r.timeout)
		}
	}
	return r.inner.Complete(ctx, req)
}

func (r *rendezvousLLM) Name() string { return r.inner.Name() }

// Both sides of a join execute concurrently: the left-branch llmFilter
// and the right-branch llmFilter must be in flight at the same moment,
// and the executed plan's busy windows must overlap.
func TestJoinBranchesOverlap(t *testing.T) {
	ex, _ := executorFixture(t)
	rv := newRendezvousLLM(llm.NewSim(1), 10*time.Second)
	ex.EC = docset.NewContext(docset.WithLLM(rv), docset.WithParallelism(4))

	plan := &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "l1", LogicalOp: LogicalOp{Op: OpQueryDatabase,
				Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}}},
			{ID: "l2", Inputs: []string{"l1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "LEFTMARK does the document indicate damage?"}},
			{ID: "r1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "r2", Inputs: []string{"r1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "RIGHTMARK does the document indicate damage?"}},
			{ID: "j", Inputs: []string{"l2", "r2"}, LogicalOp: LogicalOp{
				Op: OpJoin, LeftKey: "accidentNumber", RightKey: "accidentNumber", Prefix: "r"}},
		},
		Output: "j",
	}
	res, err := ex.Run(context.Background(), plan, StreamHooks{})
	if err != nil {
		t.Fatalf("concurrent branches should rendezvous, got: %v", err)
	}
	l := res.Exec.Node("l2")
	r := res.Exec.Node("r2")
	if l == nil || r == nil {
		t.Fatal("branch nodes missing from ExecDetail")
	}
	// Wall-clock overlap of the two branches' busy windows.
	if l.Runtime.StartMS >= r.Runtime.EndMS || r.Runtime.StartMS >= l.Runtime.EndMS {
		t.Errorf("busy windows do not overlap: left [%v,%v] right [%v,%v]",
			l.Runtime.StartMS, l.Runtime.EndMS, r.Runtime.StartMS, r.Runtime.EndMS)
	}
}

// A shared subtree's LLM usage is attributed to its own node exactly once
// — not once per consuming branch — and the trace's per-node counters sum
// to the true metered upstream calls.
func TestSharedSubtreeLLMCountedOnce(t *testing.T) {
	store := index.NewStore()
	for i := 0; i < 4; i++ {
		d := docmodel.New(fmt.Sprintf("A%d", i))
		d.SetProperty("accidentNumber", fmt.Sprintf("A%d", i))
		d.SetProperty("engines", 1)
		d.Text = "substantial damage to the airframe"
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	meter := llm.NewMeter(llm.NewSim(1))
	ex := &Executor{
		EC:    docset.NewContext(docset.WithLLM(meter), docset.WithParallelism(4)),
		Store: store,
	}
	// The llmFilter lives in the shared prefix consumed by both join
	// sides: its 4 calls must appear once, not twice.
	plan := &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "Does the document indicate damage?"}},
			{ID: "n3", Inputs: []string{"n2"}, LogicalOp: LogicalOp{
				Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "gte", Value: 1}}}},
			{ID: "n4", Inputs: []string{"n2", "n3"}, LogicalOp: LogicalOp{
				Op: OpJoin, LeftKey: "accidentNumber", RightKey: "accidentNumber", Prefix: "self"}},
		},
		Output: "n4",
	}
	before := meter.Usage()
	res, err := ex.Run(context.Background(), plan, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	upstream := meter.Usage().Sub(before)

	lf := res.Exec.Node("n2")
	if lf == nil || lf.Runtime.LLMCalls != 4 {
		t.Fatalf("shared llmFilter calls = %+v, want exactly 4 (one per doc, one execution)", lf)
	}
	var traced int64
	for _, nt := range res.Trace.Nodes {
		traced += nt.LLMCalls
	}
	if traced != int64(upstream.Calls) {
		t.Errorf("trace attributes %d calls, meter saw %d — double or under count", traced, upstream.Calls)
	}
}
