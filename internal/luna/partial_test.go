package luna

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aryn/internal/docset"
	"aryn/internal/llm"
)

// brokenLLM fails every completion with a permanent error.
type brokenLLM struct{ err error }

func (b brokenLLM) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, b.err
}
func (b brokenLLM) Name() string { return "broken" }

// TestRunReturnsPartialResultOnFailure pins the degradation contract at
// the executor boundary: a failed query still hands back a Result whose
// trace and EXPLAIN ANALYZE view pin the failure to the node that died,
// so the serving layer can degrade with provenance instead of discarding
// everything.
func TestRunReturnsPartialResultOnFailure(t *testing.T) {
	ex, _ := executorFixture(t)
	boom := errors.New("model exploded")
	ex.EC = docset.NewContext(docset.WithLLM(brokenLLM{err: boom}), docset.WithRetries(0))

	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: "Does the document mention birds?"},
		LogicalOp{Op: OpCount},
	), StreamHooks{})
	if err == nil {
		t.Fatal("want the execution failure to surface")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error lost the cause: %v", err)
	}
	if res == nil {
		t.Fatal("failed Run returned a nil Result; partial results must survive")
	}
	if res.Trace == nil || res.Exec == nil {
		t.Fatal("partial Result is missing its trace or EXPLAIN ANALYZE view")
	}

	var annotated bool
	for _, nt := range res.Trace.Nodes {
		if strings.Contains(nt.Err, "model exploded") {
			annotated = true
		}
	}
	if !annotated {
		t.Error("no trace node carries the failing operator's error")
	}

	var pinned bool
	for _, n := range res.Exec.Nodes {
		if n.Op == string(OpLLMFilter) && strings.Contains(n.Runtime.Error, "model exploded") {
			pinned = true
		}
	}
	if !pinned {
		t.Errorf("EXPLAIN ANALYZE did not pin the failure to the llmFilter node: %+v", res.Exec.Nodes)
	}
}

// TestRunPartialSurvivesTransientExhaustion: retries-exhausted transient
// failures degrade the same way, and the retry effort is visible.
func TestRunPartialSurvivesTransientExhaustion(t *testing.T) {
	ex, _ := executorFixture(t)
	ex.EC = docset.NewContext(docset.WithLLM(brokenLLM{err: llm.ErrTransient}), docset.WithRetries(1))

	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMFilter, Question: "Does the document mention birds?"},
		LogicalOp{Op: OpCount},
	), StreamHooks{})
	if err == nil || res == nil {
		t.Fatalf("want (partial result, error); got res=%v err=%v", res != nil, err)
	}
	var retried bool
	for _, n := range res.Exec.Nodes {
		if n.Op == string(OpLLMFilter) && n.Runtime.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Error("EXPLAIN ANALYZE shows no retries for the exhausted llmFilter node")
	}
}
