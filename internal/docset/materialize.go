package docset

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"aryn/internal/docmodel"
	"aryn/internal/statefile"
)

// MemoryCache is the in-memory materialization target: named snapshots of
// intermediate DocSet results, used for debugging and re-execution (§5.3).
// Safe for concurrent use.
type MemoryCache struct {
	mu    sync.Mutex
	items map[string][]*docmodel.Document
}

// NewMemoryCache returns an empty cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{items: make(map[string][]*docmodel.Document)}
}

// Get returns the snapshot stored under name.
func (m *MemoryCache) Get(name string) ([]*docmodel.Document, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	docs, ok := m.items[name]
	return docs, ok
}

func (m *MemoryCache) put(name string, docs []*docmodel.Document) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items[name] = docs
}

// MaterializeMemory snapshots the documents flowing through this point of
// the plan into the cache under name, then passes them through unchanged.
func (ds *DocSet) MaterializeMemory(cache *MemoryCache, name string) *DocSet {
	return ds.with(stageSpec{
		name: "materialize[memory:" + name + "]",
		kind: barrierKind,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			snap := make([]*docmodel.Document, len(docs))
			for i, d := range docs {
				snap[i] = d.Clone()
			}
			cache.put(name, snap)
			return docs, nil
		},
	})
}

// ShareTask wraps this DocSet as a schedulable Task whose pipeline
// executes at most once and replays its result to every consumer (see
// Task): the materialization a DAG plan needs when one subtree feeds
// several downstream operators (a diamond), so the shared prefix is not
// re-computed per consumer. The replayed documents are marked shared:
// consumers with mutating stages clone at their source, keeping branches
// isolated. The subtree's LLM usage is attributed to its own stages
// exactly once, because attribution happens at call dispatch, not by
// re-tracing each consumer's execution window.
func (ds *DocSet) ShareTask() *Task {
	return NewTask(fmt.Sprintf("shared[%s +%d stages]", ds.source.name, len(ds.stages)), ds)
}

// WriteJSONL persists documents as gzipped JSON lines.
func WriteJSONL(path string, docs []*docmodel.Document) error {
	err := statefile.Write(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		enc := json.NewEncoder(zw)
		for _, d := range docs {
			if err := enc.Encode(d); err != nil {
				return fmt.Errorf("encode %s: %w", d.ID, err)
			}
		}
		return zw.Close()
	})
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	return nil
}
