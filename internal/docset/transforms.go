package docset

import (
	"fmt"
	"sort"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// This file implements the structured operators of Table 2a: standard
// dataflow transforms that take arbitrary functions and reshape documents.

// Map transforms each document with fn (fn may mutate and return its
// argument; each document flows through exactly one ownership path).
func (ds *DocSet) Map(name string, fn func(*docmodel.Document) (*docmodel.Document, error)) *DocSet {
	return ds.with(stageSpec{
		name:    "map[" + name + "]",
		kind:    mapKind,
		mutates: true,
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			out, err := fn(d)
			if err != nil {
				return nil, err
			}
			if out == nil {
				return nil, nil
			}
			return []*docmodel.Document{out}, nil
		},
	})
}

// Filter keeps documents for which pred returns true. pred must treat its
// argument as read-only: filtered documents may be shared index snapshots
// (use Map for in-place edits).
func (ds *DocSet) Filter(name string, pred func(*docmodel.Document) (bool, error)) *DocSet {
	return ds.with(stageSpec{
		name: "filter[" + name + "]",
		kind: mapKind,
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			ok, err := pred(d)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			return []*docmodel.Document{d}, nil
		},
	})
}

// FilterProps keeps documents whose properties satisfy the predicate —
// the compiled form of a metadata filter.
func (ds *DocSet) FilterProps(pred index.Predicate) *DocSet {
	return ds.Filter(pred.String(), func(d *docmodel.Document) (bool, error) {
		return pred.Match(d.Properties), nil
	})
}

// Partitioner converts a raw binary document into a parsed document tree.
// DocParse implements this interface; the transform is Sycamore's
// `partition` (Table 2a).
type Partitioner interface {
	// Partition parses doc.Binary into elements/children on a new document.
	Partition(doc *docmodel.Document) (*docmodel.Document, error)
	// Name identifies the partitioner in plans.
	Name() string
}

// Partition parses raw documents with the given partitioner.
func (ds *DocSet) Partition(p Partitioner) *DocSet {
	return ds.with(stageSpec{
		name: "partition[" + p.Name() + "]",
		kind: mapKind,
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			parsed, err := p.Partition(d)
			if err != nil {
				return nil, fmt.Errorf("partition %s: %w", d.ID, err)
			}
			return []*docmodel.Document{parsed}, nil
		},
	})
}

// MergeChunks cuts each document into retrieval-sized passages of at most
// maxTokens tokens — the chunking granularity RAG systems index at (Table
// 2a's explode and merge in one map stage). A passage is a run of the
// document's elements in reading order, each contributing its
// docmodel.ChunkText, joined by newlines; the next passage starts where
// the next element would overflow the budget. Page furniture (repeated
// headers and footers) is boilerplate, not content, and is dropped —
// indexing it would pollute retrieval with chunks shared by every
// document. Passage i of document P is chunk "P#mi", carrying P's title,
// a clone of its properties, copies of its elements and a ParentID
// back-pointer; the parent itself is not emitted. A passage depends on its
// document alone, so each document is chunked as it arrives.
func (ds *DocSet) MergeChunks(maxTokens int) *DocSet {
	return ds.with(stageSpec{
		name:  fmt.Sprintf("mergeChunks[%d tok]", maxTokens),
		kind:  mapKind,
		fresh: true, // emits new chunk documents with cloned elements/props
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			var out []*docmodel.Document
			var cur *docmodel.Document
			var curTokens int
			for _, e := range d.AllElements() {
				if e.Type.IsFurniture() {
					continue
				}
				t := docmodel.ChunkText(e)
				n := llm.CountTokens(t)
				if cur == nil || curTokens+n > maxTokens {
					cur = docmodel.New(fmt.Sprintf("%s#m%d", d.ID, len(out)+1))
					cur.ParentID = d.ID
					cur.Title = d.Title
					cur.Properties = d.Properties.Clone()
					out = append(out, cur)
					curTokens = 0
				}
				if cur.Text != "" {
					cur.Text += "\n"
				}
				cur.Text += t
				curTokens += n
				cur.Elements = append(cur.Elements, e.Clone())
			}
			return out, nil
		},
	})
}

// reduceByKey groups documents by key and reduces each group to one
// document (Table 2a). Groups are emitted in sorted key order. Documents
// with an empty key are dropped, accommodating missing fields (§5.2). Its
// callers (GroupByAggregate, LLMReduceByKey) only read their group and
// emit brand-new group documents, so the stage is a fresh-document
// barrier: shared-source plans stay zero-clone even with mutators
// downstream of the aggregation.
func (ds *DocSet) reduceByKey(name string, key func(*docmodel.Document) string, reduce func(key string, docs []*docmodel.Document) (*docmodel.Document, error)) *DocSet {
	return ds.with(stageSpec{
		name:  "reduceByKey[" + name + "]",
		kind:  barrierKind,
		fresh: true,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			groups := map[string][]*docmodel.Document{}
			var order []string
			for _, d := range docs {
				k := key(d)
				if k == "" {
					continue
				}
				if _, ok := groups[k]; !ok {
					order = append(order, k)
				}
				groups[k] = append(groups[k], d)
			}
			sort.Strings(order)
			out := make([]*docmodel.Document, 0, len(order))
			for _, k := range order {
				reduced, err := reduce(k, groups[k])
				if err != nil {
					return nil, err
				}
				if reduced != nil {
					out = append(out, reduced)
				}
			}
			return out, nil
		},
	})
}

// Limit keeps the first n documents (deterministic order).
func (ds *DocSet) Limit(n int) *DocSet {
	return ds.with(stageSpec{
		name: fmt.Sprintf("limit[%d]", n),
		kind: barrierKind,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			if n >= 0 && len(docs) > n {
				docs = docs[:n]
			}
			return docs, nil
		},
	})
}

// SortBy orders documents by the given property. Missing values sort last;
// numeric values compare numerically when both sides parse.
func (ds *DocSet) SortBy(field string, descending bool) *DocSet {
	dir := "asc"
	if descending {
		dir = "desc"
	}
	return ds.with(stageSpec{
		name: fmt.Sprintf("sort[%s %s]", field, dir),
		kind: barrierKind,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			sort.SliceStable(docs, func(i, j int) bool {
				less := propLess(docs[i], docs[j], field)
				if descending {
					return propLess(docs[j], docs[i], field)
				}
				return less
			})
			return docs, nil
		},
	})
}

func propLess(a, b *docmodel.Document, field string) bool {
	av, aok := a.Properties.Float(field)
	bv, bok := b.Properties.Float(field)
	switch {
	case aok && bok:
		return av < bv
	case aok != bok:
		return aok // numeric before non-numeric
	}
	as, bs := a.Property(field), b.Property(field)
	if (as == "") != (bs == "") {
		return as != "" // present before missing
	}
	return strings.ToLower(as) < strings.ToLower(bs)
}

// Distinct keeps the first document per key, dropping duplicates — the
// deduplication step whose absence causes the paper's counting errors
// (§7.2: one incident with two aircraft counted twice).
func (ds *DocSet) Distinct(field string) *DocSet {
	return ds.with(stageSpec{
		name: "distinct[" + field + "]",
		kind: barrierKind,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			seen := map[string]bool{}
			var out []*docmodel.Document
			for _, d := range docs {
				k := d.Property(field)
				if k == "" {
					k = d.ID
				}
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, d)
			}
			return out, nil
		},
	})
}

// Write stores documents into the index and passes them through: chunk
// documents (non-empty ParentID) index as chunks, everything else upserts
// as a parent document (Table 2a's write).
func (ds *DocSet) Write(store *index.Store) *DocSet {
	return ds.with(stageSpec{
		name: "write[index]",
		kind: mapKind,
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			if d.ParentID != "" {
				err := store.PutChunk(index.Chunk{
					ID:       d.ID,
					ParentID: d.ParentID,
					Text:     d.Text,
					Vector:   d.Embedding,
					Page:     firstPage(d),
				})
				if err != nil {
					return nil, err
				}
			} else if err := store.PutDocument(d); err != nil {
				return nil, err
			}
			return []*docmodel.Document{d}, nil
		},
	})
}

func firstPage(d *docmodel.Document) int {
	for _, e := range d.AllElements() {
		if e.Page > 0 {
			return e.Page
		}
	}
	return 0
}
