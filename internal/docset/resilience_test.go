package docset

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
	"aryn/internal/resilience"
)

func testRetrier() *resilience.Retrier {
	return resilience.NewRetrier(resilience.Policy{
		BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1,
	})
}

// TestRetryBackoffRecordedInTrace: transient map failures are retried with
// paced backoff, and the stall shows up in the stage's trace node so
// EXPLAIN ANALYZE separates "stalled retrying" from "busy".
func TestRetryBackoffRecordedInTrace(t *testing.T) {
	ec := NewContext(WithParallelism(1), WithBackoff(testRetrier()))
	var calls atomic.Int32
	docs, trace, err := FromDocuments(ec, testDocs(1)).
		Map("flaky", func(d *docmodel.Document) (*docmodel.Document, error) {
			if calls.Add(1) <= 2 {
				return nil, fmt.Errorf("blip: %w", llm.ErrTransient)
			}
			return d, nil
		}).
		Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("got %d docs, want the retried document", len(docs))
	}
	nt := traceNode(trace, "map[flaky]")
	if nt == nil {
		t.Fatal("no trace node for map[flaky]")
	}
	if nt.Retries != 2 {
		t.Errorf("trace retries = %d, want 2", nt.Retries)
	}
	if nt.BackoffNS <= 0 {
		t.Errorf("trace BackoffNS = %d, want > 0 (paced retries must be visible)", nt.BackoffNS)
	}
	if nt.Err != "" {
		t.Errorf("successful stage carries an error annotation: %q", nt.Err)
	}
}

// TestPartialDocsAndErrAnnotation: a failing plan hands back whatever
// flowed out before the failure, and the trace pins the failure to the
// stage that actually died.
func TestPartialDocsAndErrAnnotation(t *testing.T) {
	ec := NewContext(WithParallelism(1))
	docs, trace, err := FromDocuments(ec, testDocs(5)).
		Map("explode", func(d *docmodel.Document) (*docmodel.Document, error) {
			if d.ID == "d003" {
				return nil, errors.New("perma-boom")
			}
			return d, nil
		}).
		Execute(context.Background())
	if err == nil {
		t.Fatal("want the permanent failure to surface")
	}
	if len(docs) == 0 || len(docs) >= 5 {
		t.Fatalf("got %d docs, want a non-empty strict subset (partial results)", len(docs))
	}
	for _, d := range docs {
		if d.ID >= "d003" {
			t.Errorf("doc %s flowed out past the failure point", d.ID)
		}
	}
	nt := traceNode(trace, "map[explode]")
	if nt == nil {
		t.Fatal("no trace node for map[explode]")
	}
	if !strings.Contains(nt.Err, "perma-boom") {
		t.Errorf("trace node error = %q, want the failing operator's error", nt.Err)
	}
}

// TestPlanDeadlineNotRetried: when the plan's own context dies mid-attempt
// the failure is terminal — not an operator fault, not retryable.
func TestPlanDeadlineNotRetried(t *testing.T) {
	ec := NewContext(WithBackoff(testRetrier()))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var attempts atomic.Int32
	fn := func(c *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
		attempts.Add(1)
		<-c.CallContext().Done()
		return nil, c.CallContext().Err()
	}
	nt := &NodeTrace{Name: "map[wedged]"}
	_, err := applyWithRetry(ctx, ec, fn, docmodel.New("d"), nt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the plan deadline, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("plan-deadline failure was retried %d times", got-1)
	}
}

// TestFaultHookGatesAttempts: a transient hook fault consumes a retry; a
// permanent one aborts before the operator ever runs.
func TestFaultHookGatesAttempts(t *testing.T) {
	var hookCalls, fnCalls atomic.Int32
	ec := NewContext(WithBackoff(testRetrier()),
		WithFaultHook(func(op string) error {
			if hookCalls.Add(1) == 1 {
				return fmt.Errorf("fault[%s]: %w", op, llm.ErrTransient)
			}
			return nil
		}))
	fn := func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
		fnCalls.Add(1)
		return []*docmodel.Document{d}, nil
	}
	nt := &NodeTrace{Name: "map[hooked]"}
	if _, err := applyWithRetry(context.Background(), ec, fn, docmodel.New("d"), nt); err != nil {
		t.Fatal(err)
	}
	if fnCalls.Load() != 1 || nt.Retries != 1 {
		t.Errorf("fn ran %d times, retries = %d; want the hook fault to burn one retry", fnCalls.Load(), nt.Retries)
	}

	perm := errors.New("permanent fault")
	ec2 := NewContext(WithFaultHook(func(string) error { return perm }))
	var ran atomic.Int32
	_, err := applyWithRetry(context.Background(), ec2, func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
		ran.Add(1)
		return []*docmodel.Document{d}, nil
	}, docmodel.New("d"), &NodeTrace{Name: "map[perm]"})
	if !errors.Is(err, perm) {
		t.Fatalf("want the permanent hook fault, got %v", err)
	}
	if ran.Load() != 0 {
		t.Error("operator ran despite a permanent injected fault")
	}
}
