package docset

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aryn/internal/docmodel"
)

func scheduleDocs(n int) []*docmodel.Document {
	docs := make([]*docmodel.Document, n)
	for i := range docs {
		d := docmodel.New(fmt.Sprintf("d%02d", i))
		d.SetProperty("k", i%2)
		d.Text = "engine fire and substantial damage"
		docs[i] = d
	}
	return docs
}

// Concurrent first-demand from many consumers must execute a shared
// subtree exactly once, with no race on its memoized result (run under
// -race: this is the regression test for concurrent Shared()
// materialization).
func TestConcurrentSharedMaterializesOnce(t *testing.T) {
	ec := NewContext(WithParallelism(4))
	var runs int64
	shared := FromDocuments(ec, scheduleDocs(6)).
		Filter("counted", func(d *docmodel.Document) (bool, error) {
			atomic.AddInt64(&runs, 1)
			return true, nil
		}).Shared()

	const consumers = 8
	var wg sync.WaitGroup
	outs := make([][]*docmodel.Document, consumers)
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = shared.Limit(10).TakeAll(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < consumers; i++ {
		if errs[i] != nil {
			t.Fatalf("consumer %d: %v", i, errs[i])
		}
		if len(outs[i]) != 6 {
			t.Errorf("consumer %d got %d docs, want 6", i, len(outs[i]))
		}
	}
	if got := atomic.LoadInt64(&runs); got != 6 {
		t.Errorf("shared subtree filter ran %d times, want 6 (once per doc, one execution)", got)
	}
}

// A task started eagerly by a scheduler overlaps with work that does not
// consume it, and its trace is retained for the scheduler to merge.
func TestTaskStartIsEagerAndIdempotent(t *testing.T) {
	ec := NewContext(WithParallelism(2))
	// Buffered: the branch may run all three documents before the test
	// goroutine gets to its receive, and the signal must not be lost.
	started := make(chan struct{}, 1)
	task := NewTask("branch", FromDocuments(ec, scheduleDocs(3)).
		Filter("signal", func(d *docmodel.Document) (bool, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			return true, nil
		}))
	ctx := context.Background()
	task.Start(ctx)
	task.Start(ctx) // idempotent
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("task did not start eagerly")
	}
	docs, err := task.Wait(ctx)
	if err != nil || len(docs) != 3 {
		t.Fatalf("Wait = %d docs, %v", len(docs), err)
	}
	task.Join()
	if task.Trace() == nil || len(task.Trace().Nodes) == 0 {
		t.Error("task trace missing after completion")
	}
	if !task.Started() {
		t.Error("Started() = false after Start")
	}
}

// A failing subtree surfaces its error through every consumer.
func TestTaskErrorPropagates(t *testing.T) {
	ec := NewContext()
	boom := errors.New("subtree failed")
	task := NewTask("bad branch", FromDocuments(ec, scheduleDocs(2)).
		Filter("boom", func(d *docmodel.Document) (bool, error) { return false, boom }))
	if _, err := task.DocSet().TakeAll(context.Background()); !errors.Is(err, boom) {
		t.Errorf("consumer error = %v, want %v", err, boom)
	}
	if _, err := task.Wait(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Wait error = %v, want %v", err, boom)
	}
}

// The per-query worker budget caps busy workers across every pipeline in
// the scope, no matter how many branches run concurrently — and execution
// under a budget of 1 yields byte-identical output to an unbudgeted run.
func TestQueryScopeBudgetCapsBusyWorkers(t *testing.T) {
	const parallelism = 3
	ec := NewContext(WithParallelism(parallelism))
	qec := ec.QueryScope()

	var busy, peak int64
	gauge := func(d *docmodel.Document) (bool, error) {
		n := atomic.AddInt64(&busy, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&busy, -1)
		return true, nil
	}

	mk := func(ec *Context) *DocSet {
		return FromDocuments(ec, scheduleDocs(10)).Filter("gauge", gauge)
	}
	var wg sync.WaitGroup
	var errL, errR error
	var outL, outR []*docmodel.Document
	wg.Add(2)
	go func() { defer wg.Done(); outL, errL = mk(qec).TakeAll(context.Background()) }()
	go func() { defer wg.Done(); outR, errR = mk(qec).TakeAll(context.Background()) }()
	wg.Wait()
	if errL != nil || errR != nil {
		t.Fatal(errL, errR)
	}
	if got := atomic.LoadInt64(&peak); got > parallelism {
		t.Errorf("peak busy workers = %d, want <= %d (two branches share one budget)", got, parallelism)
	}

	// Determinism across budget sizes: the same pipeline under a budget
	// of 1 emits byte-identical documents.
	one := NewContext(WithParallelism(1)).QueryScope()
	outOne, err := mk(one).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(outL)
	b, _ := json.Marshal(outOne)
	if string(a) != string(b) {
		t.Error("budget 1 vs N output differs")
	}
	if len(outR) != len(outL) {
		t.Errorf("branch outputs differ: %d vs %d", len(outR), len(outL))
	}
}

// Re-executing a joined DocSet built with the lazy Join API must run the
// build side afresh each time (the historical contract for direct docset
// users — only JoinTask pipelines are single-use).
func TestJoinReexecutesBuildSide(t *testing.T) {
	ec := NewContext(WithParallelism(2))
	var builds int64
	joined := FromDocuments(ec, scheduleDocs(2)).
		Join(FromDocuments(ec, scheduleDocs(2)).
			Filter("buildCount", func(d *docmodel.Document) (bool, error) {
				atomic.AddInt64(&builds, 1)
				return true, nil
			}), "k", "k", "r", SemiJoin)
	for run := 1; run <= 2; run++ {
		docs, _, err := joined.Execute(context.Background())
		if err != nil || len(docs) != 2 {
			t.Fatalf("run %d: %d docs, %v", run, len(docs), err)
		}
	}
	if got := atomic.LoadInt64(&builds); got != 4 {
		t.Errorf("build side ran %d doc-filters across 2 executions, want 4 (fresh build per run)", got)
	}

	// A cancelled first run must not poison a retry.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := joined.Execute(cancelled); err == nil {
		t.Fatal("cancelled run should fail")
	}
	if docs, _, err := joined.Execute(context.Background()); err != nil || len(docs) != 2 {
		t.Errorf("retry after cancellation: %d docs, %v", len(docs), err)
	}
}

// JoinTask consumes a prebuilt build side: starting it before the probe
// runs must not change join results, and the build executes once.
func TestJoinTaskPrebuiltBuildSide(t *testing.T) {
	ec := NewContext(WithParallelism(2))
	left := FromDocuments(ec, scheduleDocs(4))
	var builds int64
	right := FromDocuments(ec, scheduleDocs(4)).
		Filter("buildCount", func(d *docmodel.Document) (bool, error) {
			atomic.AddInt64(&builds, 1)
			return true, nil
		})
	build := NewTask("join build", right)
	build.Start(context.Background())
	joined, _, err := left.JoinTask(build, "k", "k", "r", InnerJoin).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 4 left docs × 2 matches each (k is 0/1 over 4 docs).
	if len(joined) != 8 {
		t.Errorf("joined = %d docs, want 8", len(joined))
	}
	if got := atomic.LoadInt64(&builds); got != 4 {
		t.Errorf("build side ran %d times, want 4 (once per doc)", got)
	}
}
