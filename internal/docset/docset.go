package docset

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/index"
)

// DocSet is a lazy, immutable plan over a collection of documents. Every
// transform returns a new DocSet; nothing executes until Execute (or a
// helper like Count/TakeAll) is called — the Spark-style deferred model of
// §5.3.
type DocSet struct {
	ctx    *Context
	source sourceSpec
	stages []stageSpec
}

// with returns a copy of ds with one more stage appended (plans share
// structure but never mutate).
func (ds *DocSet) with(sp stageSpec) *DocSet {
	stages := make([]stageSpec, len(ds.stages)+1)
	copy(stages, ds.stages)
	stages[len(ds.stages)] = sp
	return &DocSet{ctx: ds.ctx, source: ds.source, stages: stages}
}

// Tag labels the plan-node identity of the operators this DocSet adds
// over base: every stage beyond base's stage count, plus the source when
// base is nil (a source belongs to the node that created it). Compilers
// call Tag after lowering each logical node so execution traces can be
// aggregated back to plan nodes (EXPLAIN ANALYZE). Returns a copy; ds is
// unchanged.
func (ds *DocSet) Tag(base *DocSet, tag string) *DocSet {
	out := &DocSet{ctx: ds.ctx, source: ds.source}
	out.stages = make([]stageSpec, len(ds.stages))
	copy(out.stages, ds.stages)
	from := 0
	if base != nil {
		from = len(base.stages)
	} else {
		out.source.tag = tag
	}
	for i := from; i < len(out.stages); i++ {
		out.stages[i].tag = tag
	}
	return out
}

// FromDocuments builds a DocSet over an in-memory document slice. The
// caller keeps ownership: when the plan contains a mutating operator the
// executor clones documents at the source, and pure-read plans flow the
// originals through untouched.
func FromDocuments(ec *Context, docs []*docmodel.Document) *DocSet {
	snapshot := make([]*docmodel.Document, len(docs))
	copy(snapshot, docs)
	return &DocSet{
		ctx: ec,
		source: sourceSpec{
			name:   fmt.Sprintf("scan[memory, %d docs]", len(snapshot)),
			shared: true,
			emit: func(ctx context.Context, _ *Context, yield func(*docmodel.Document) error) error {
				for _, d := range snapshot {
					if err := yield(d); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

// ReadBinary builds a single-node DocSet per raw blob, the state documents
// are in before partitioning (§5.1: "when first reading a PDF, it may be
// represented as a single-node document with the raw PDF binary").
//
// The DocSet owns the documents it builds: every execution builds them
// afresh, so a mutating stage downstream changes no one else's document and
// nothing is cloned at the source. The blob bytes stay the caller's:
// Document.Binary is the caller's slice, and the plan only reads it.
func ReadBinary(ec *Context, blobs map[string][]byte) *DocSet {
	ids := slices.Sorted(maps.Keys(blobs)) // deterministic order
	bins := make([][]byte, len(ids))
	for i, id := range ids {
		bins[i] = blobs[id]
	}
	return &DocSet{ctx: ec, source: sourceSpec{
		name: fmt.Sprintf("readBinary[%d blobs]", len(ids)),
		emit: func(ctx context.Context, _ *Context, yield func(*docmodel.Document) error) error {
			for i, id := range ids {
				d := docmodel.New(id)
				d.Binary = bins[i]
				if err := yield(d); err != nil {
					return err
				}
			}
			return nil
		},
	}}
}

// QueryDatabase scans an index with keyword search and/or property filters
// — the queryDatabase operator of Table 2a.
func QueryDatabase(ec *Context, store *index.Store, q index.Query) *DocSet {
	return &DocSet{
		ctx: ec,
		source: sourceSpec{
			name: describeQuery("queryDatabase", q),
			// SearchDocs returns the store's shared snapshots; the
			// executor clones them only for mutating plans.
			shared: true,
			emit: func(ctx context.Context, _ *Context, yield func(*docmodel.Document) error) error {
				for _, hit := range store.SearchDocs(q) {
					if err := yield(hit.Doc); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

// QueryVectorDatabase performs semantic search over the index: the query
// text is embedded and the nearest chunks' parent documents are returned
// (Table 2b). Property filters still apply.
func QueryVectorDatabase(ec *Context, store *index.Store, queryText string, filter index.Predicate, k int) *DocSet {
	return &DocSet{
		ctx: ec,
		source: sourceSpec{
			name:   fmt.Sprintf("queryVectorDatabase[%q, k=%d]", queryText, k),
			shared: true,
			emit: func(ctx context.Context, ec *Context, yield func(*docmodel.Document) error) error {
				vec := ec.Embedder.Embed(queryText)
				q := index.Query{Vector: vec, Filter: filter, K: k}
				for _, hit := range store.SearchDocs(q) {
					if err := yield(hit.Doc); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

func describeQuery(op string, q index.Query) string {
	desc := op + "["
	if q.Keyword != "" {
		desc += fmt.Sprintf("keyword=%q ", q.Keyword)
	}
	if q.Filter != nil {
		desc += "filter=" + q.Filter.String() + " "
	}
	if q.K > 0 {
		desc += fmt.Sprintf("k=%d", q.K)
	}
	return strings.TrimRight(desc, " ") + "]"
}

// TakeAll executes the plan and returns just the documents.
func (ds *DocSet) TakeAll(ctx context.Context) ([]*docmodel.Document, error) {
	docs, _, err := ds.Execute(ctx)
	return docs, err
}

// PlanString renders the logical plan for inspection (§6.2 explainability).
func (ds *DocSet) PlanString() string {
	out := ds.source.name
	for _, sp := range ds.stages {
		out += "\n  -> " + sp.name
	}
	return out
}
