package docset

import (
	"context"
	"fmt"
	"strings"

	"aryn/internal/docmodel"
)

// This file implements joins across DocSets — listed as future work in the
// paper (§9: "We need to extend Aryn to support joins and allow queries to
// incorporate external sources like data warehouses"). The implementation
// is a hash equi-join on document properties, which covers the paper's
// motivating "data integration" pattern (§1: combining a sweep-and-harvest
// phase with a database lookup).

// JoinKind selects join semantics.
type JoinKind string

// Join kinds.
const (
	// InnerJoin keeps left documents with at least one right match.
	InnerJoin JoinKind = "inner"
	// LeftJoin keeps every left document, enriched when a match exists.
	LeftJoin JoinKind = "left"
	// SemiJoin keeps matching left documents without enrichment (an
	// existence filter against the right side).
	SemiJoin JoinKind = "semi"
	// AntiJoin keeps left documents with no right match.
	AntiJoin JoinKind = "anti"
)

// Join hash-joins this DocSet (the probe side) against the result of
// building right: left documents whose leftKey property equals some right
// document's rightKey property are combined according to kind. On inner
// and left joins, the right document's properties are merged in under
// "<prefix>." namespacing so provenance stays visible; a left document
// matching multiple right documents is emitted once per match.
//
// The right side is fully executed and built into a hash table when the
// join stage runs (broadcast-hash-join semantics); use the smaller
// collection as the right side. Join executes the build side afresh on
// every run of the joined plan (the historical contract for direct
// docset users). The Luna scheduler lowers joins through JoinTask
// instead, so the build executes concurrently with the probe side.
func (ds *DocSet) Join(right *DocSet, leftKey, rightKey, prefix string, kind JoinKind) *DocSet {
	return ds.join(leftKey, rightKey, prefix, kind,
		func(ctx context.Context) ([]*docmodel.Document, error) {
			docs, _, err := right.Execute(ctx)
			return docs, err
		})
}

// JoinTask hash-joins this DocSet (the probe side) against a prebuilt
// build-side Task: the probe barrier waits for the task's documents
// instead of executing the build side inline, so a scheduler that started
// the task at query begin overlaps build and probe work. Because a Task
// executes at most once, the joined DocSet is single-use — compilers
// create a fresh Task per run (Join's per-execution semantics are
// otherwise identical).
func (ds *DocSet) JoinTask(build *Task, leftKey, rightKey, prefix string, kind JoinKind) *DocSet {
	return ds.join(leftKey, rightKey, prefix, kind, build.Wait)
}

// join is the shared probe: buildFn produces the build-side documents
// when the barrier runs.
func (ds *DocSet) join(leftKey, rightKey, prefix string, kind JoinKind, buildFn func(context.Context) ([]*docmodel.Document, error)) *DocSet {
	if prefix == "" {
		prefix = "right"
	}
	return ds.with(stageSpec{
		name: fmt.Sprintf("join[%s, %s=%s]", kind, leftKey, rightKey),
		kind: barrierKind,
		// The build side runs under the outer plan's context, so a
		// cancelled or timed-out query aborts right-side work too. The
		// barrier holds no worker-budget token while waiting, so the
		// build side can always draw workers.
		barrierCtxFn: func(ctx context.Context, ec *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			rightDocs, err := buildFn(ctx)
			if err != nil {
				return nil, fmt.Errorf("join: right side: %w", err)
			}
			table := map[string][]*docmodel.Document{}
			for _, r := range rightDocs {
				k := joinKey(r, rightKey)
				if k == "" {
					continue
				}
				table[k] = append(table[k], r)
			}
			var out []*docmodel.Document
			for _, l := range docs {
				matches := table[joinKey(l, leftKey)]
				switch kind {
				case InnerJoin:
					for _, r := range matches {
						out = append(out, merged(l, r, prefix))
					}
				case LeftJoin:
					if len(matches) == 0 {
						out = append(out, l)
						continue
					}
					for _, r := range matches {
						out = append(out, merged(l, r, prefix))
					}
				case SemiJoin:
					if len(matches) > 0 {
						out = append(out, l)
					}
				case AntiJoin:
					if len(matches) == 0 {
						out = append(out, l)
					}
				default:
					return nil, fmt.Errorf("join: unknown kind %q", kind)
				}
			}
			return out, nil
		},
	})
}

// joinKey normalizes the join attribute (case-insensitive string match).
func joinKey(d *docmodel.Document, field string) string {
	return strings.ToLower(strings.TrimSpace(d.Property(field)))
}

// merged clones the left document and merges the right document's
// properties under the prefix namespace.
func merged(l, r *docmodel.Document, prefix string) *docmodel.Document {
	right := make(docmodel.Properties, 0, len(r.Properties))
	for k, v := range r.Properties.All() {
		right = right.Set(prefix+"."+k, v) // in key order: each Set appends
	}
	out := l.Clone()
	out.Properties = out.Properties.Merge(right)
	return out
}
