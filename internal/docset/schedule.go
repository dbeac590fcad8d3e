package docset

import (
	"context"
	"fmt"
	"sync"

	"aryn/internal/docmodel"
)

// This file implements the branch scheduler: independently-executable
// subtrees of a physical plan (join build sides, diamond prefixes shared
// by several consumers, extra roots of a multi-root DAG) wrapped as Tasks
// that run in their own goroutines. The Luna compiler collects the Tasks
// a plan needs and starts them all when the query begins, so independent
// branches overlap in wall-clock time instead of executing lazily, one at
// a time, in topological order. The per-query worker budget
// (Context.QueryScope) keeps the combined footprint at Parallelism busy
// workers no matter how many branches run at once.

// Task is one independently-schedulable subtree of a physical plan. It
// executes at most once — no matter how many consumers wait on it or how
// racy their first demand is — and retains its documents, lineage trace,
// and error for every consumer. The zero value is not usable; construct
// with NewTask.
type Task struct {
	name string
	ds   *DocSet

	mu      sync.Mutex
	started bool
	done    chan struct{}
	docs    []*docmodel.Document
	trace   *Trace
	err     error
}

// NewTask wraps the subtree for scheduling. The name labels the task in
// traces and errors (e.g. "shared[queryDatabase ...]", "join build[n2]").
func NewTask(name string, ds *DocSet) *Task {
	return &Task{name: name, ds: ds, done: make(chan struct{})}
}

// Start launches the subtree in its own goroutine. Idempotent: the first
// caller's context governs the execution (later contexts only bound that
// caller's Wait). The scheduler calls Start eagerly at query begin, so the
// subtree runs concurrently with everything that does not consume it.
func (t *Task) Start(ctx context.Context) {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.mu.Unlock()
	go func() {
		docs, trace, err := t.ds.Execute(ctx)
		t.docs, t.trace, t.err = docs, trace, err
		close(t.done)
	}()
}

// Wait blocks until the subtree has executed (starting it if nobody has)
// and returns its documents. The returned slice is shared by every
// consumer — treat it as read-only (consumers with mutating stages clone
// at their source, the same contract index snapshots follow).
func (t *Task) Wait(ctx context.Context) ([]*docmodel.Document, error) {
	t.Start(ctx)
	select {
	case <-t.done:
		return t.docs, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Join blocks until the task's goroutine has fully exited (or forever if
// it was never started). Unlike Wait it ignores ctx: the scheduler uses it
// on error paths, after cancelling the execution context, to make sure no
// subtree goroutine outlives its query.
func (t *Task) Join() {
	<-t.done
}

// Trace returns the subtree's lineage trace; valid only after the task
// completed (Wait or Join returned).
func (t *Task) Trace() *Trace { return t.trace }

// DocSet returns a pipeline source that replays the task's output: it
// waits for the subtree (starting it on first demand if the scheduler
// has not) and yields the retained documents to the consumer. The source
// is marked shared, so consumers that mutate clone at their own boundary
// and branches stay isolated.
func (t *Task) DocSet() *DocSet {
	return &DocSet{
		ctx: t.ds.ctx,
		source: sourceSpec{
			name:   t.name,
			shared: true,
			emit: func(ctx context.Context, _ *Context, yield func(*docmodel.Document) error) error {
				docs, err := t.Wait(ctx)
				if err != nil {
					return fmt.Errorf("%s: %w", t.name, err)
				}
				for _, d := range docs {
					if yerr := yield(d); yerr != nil {
						return yerr
					}
				}
				return nil
			},
		},
	}
}
