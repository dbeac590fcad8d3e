package luna

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/llm"
)

var errSentinel = errors.New("stream model exploded")

// Run with hooks attached must return the exact Result it returns without
// them for the same plan — answer, documents and EXPLAIN ANALYZE shape
// identical — while delivering every output document through OnPartial and
// publishing a live trace per pipeline.
func TestRunStreamMatchesRun(t *testing.T) {
	plans := map[string]*LogicalPlan{
		"filter-chain": {
			Nodes: []PlanNode{
				{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
				{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{
					Op: OpLLMFilter, Question: "Does the document indicate substantial damage?"}},
			},
			Output: "n2",
		},
		"diamond-join": diamondPlan(),
		"count": {
			Nodes: []PlanNode{
				{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
				{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{Op: OpCount}},
			},
			Output: "n2",
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			ex, _ := executorFixture(t)
			ex.EC = docset.NewContext(docset.WithLLM(llm.NewSim(1)),
				docset.WithParallelism(4), docset.WithStreamBatch(2))

			batch, err := ex.Run(context.Background(), plan, StreamHooks{})
			if err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			var partial int
			var traces []*docset.Trace
			stream, err := ex.Run(context.Background(), plan, StreamHooks{
				OnPartial: func(docs []*docmodel.Document) {
					mu.Lock()
					partial += len(docs)
					mu.Unlock()
				},
				OnTrace: func(tr *docset.Trace) {
					mu.Lock()
					traces = append(traces, tr)
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			if a, b := batch.Answer.String(), stream.Answer.String(); a != b {
				t.Errorf("answers differ: batch %q vs stream %q", a, b)
			}
			bd, _ := json.Marshal(batch.Docs)
			sd, _ := json.Marshal(stream.Docs)
			if string(bd) != string(sd) {
				t.Errorf("documents differ:\n%s\nvs\n%s", bd, sd)
			}
			if partial != len(stream.Docs) {
				t.Errorf("OnPartial saw %d docs, want %d", partial, len(stream.Docs))
			}
			if batch.Exec.Branches != stream.Exec.Branches || batch.Exec.Budget != stream.Exec.Budget {
				t.Errorf("exec differs: branches %d vs %d, budget %d vs %d",
					batch.Exec.Branches, stream.Exec.Branches, batch.Exec.Budget, stream.Exec.Budget)
			}
			if a, b := execNodeIDs(batch.Exec), execNodeIDs(stream.Exec); a != b {
				t.Errorf("exec node IDs differ: %s vs %s", a, b)
			}
			// OnTrace saw the output pipeline and every branch task exactly
			// once: one trace per scheduled pipeline, together holding
			// exactly the operators of the merged result trace.
			if len(traces) != stream.Exec.Branches {
				t.Errorf("OnTrace saw %d pipelines, want %d", len(traces), stream.Exec.Branches)
			}
			seen := map[*docset.NodeTrace]int{}
			for _, tr := range traces {
				for _, nt := range tr.Nodes {
					seen[nt]++
				}
			}
			for _, nt := range stream.Trace.Nodes {
				if seen[nt] != 1 {
					t.Errorf("operator %s published %d times, want once", nt.Name, seen[nt])
				}
			}
			if len(seen) != len(stream.Trace.Nodes) {
				t.Errorf("OnTrace published %d operators, the result trace has %d", len(seen), len(stream.Trace.Nodes))
			}
		})
	}
}

// execNodeIDs renders the executed plan-node IDs in order.
func execNodeIDs(d *ExecDetail) string {
	ids := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		ids[i] = n.ID
	}
	return strings.Join(ids, ",")
}

// The EXPLAIN ANALYZE view gains first-batch latency: the output node
// reports when its first document flowed, within the node's busy bounds.
func TestExecDetailFirstOut(t *testing.T) {
	res, _ := runDiamond(t, 4, false)
	scan := res.Exec.Node("n1")
	if scan == nil || scan.Runtime.FirstOutMS <= 0 {
		t.Fatalf("scan runtime = %+v, want positive first_out_ms", scan)
	}
	join := res.Exec.Node("n4")
	if join == nil || join.Runtime.FirstOutMS <= 0 {
		t.Fatalf("join runtime = %+v, want positive first_out_ms", join)
	}
	if scan.Runtime.FirstOutMS > res.Exec.WallMS {
		t.Errorf("first_out_ms %v beyond wall %v", scan.Runtime.FirstOutMS, res.Exec.WallMS)
	}
}

// A plan failure with hooks attached keeps the partial-result contract:
// the Result carries trace and error annotations.
func TestRunStreamPartialOnFailure(t *testing.T) {
	ex, _ := executorFixture(t)
	ex.EC = docset.NewContext(docset.WithLLM(brokenLLM{err: errSentinel}),
		docset.WithParallelism(1), docset.WithRetries(0))
	plan := &LogicalPlan{
		Nodes: []PlanNode{
			{ID: "n1", LogicalOp: LogicalOp{Op: OpQueryDatabase}},
			{ID: "n2", Inputs: []string{"n1"}, LogicalOp: LogicalOp{
				Op: OpLLMFilter, Question: "Does the document indicate damage?"}},
		},
		Output: "n2",
	}
	res, err := ex.Run(context.Background(), plan, StreamHooks{
		OnPartial: func([]*docmodel.Document) {},
		OnTrace:   func(*docset.Trace) {},
	})
	if err == nil {
		t.Fatal("want execution error from permanent LLM failure")
	}
	if res == nil || res.Trace == nil {
		t.Fatal("partial result missing on streaming failure")
	}
}
