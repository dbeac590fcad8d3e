package docset

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// Shared returns a DocSet whose pipeline executes at most once and
// replays its result to every consumer — the materialization a DAG plan
// needs when one subtree feeds several downstream operators (a diamond),
// so the shared prefix is not re-computed per consumer. The replayed
// documents are marked shared: consumers with mutating stages clone at
// their source, keeping branches isolated.
//
// Shared is the lazy convenience form of ShareTask: execution starts on
// first demand. The Luna scheduler uses ShareTask directly so it can
// start the subtree eagerly, concurrent with the branches that consume
// it, and collect its lineage trace (which this form discards). Either
// way the subtree's LLM usage is attributed to its own stages exactly
// once — concurrent first-demand from two consumers cannot double-count
// it, because attribution happens at call dispatch, not by re-tracing
// each consumer's execution window.
func (ds *DocSet) Shared() *DocSet {
	return ds.ShareTask().DocSet()
}

// ShareTask wraps this DocSet as a schedulable Task whose output replays
// to any number of consumers (see Task).
func (ds *DocSet) ShareTask() *Task {
	return NewTask(fmt.Sprintf("shared[%s +%d stages]", ds.source.name, len(ds.stages)), ds)
}

// MaterializeDisk writes the documents flowing through this point to a
// gzipped JSON-lines file and passes them through unchanged.
func (ds *DocSet) MaterializeDisk(path string) *DocSet {
	return ds.with(stageSpec{
		name: "materialize[disk:" + filepath.Base(path) + "]",
		kind: barrierKind,
		barrierFn: func(_ *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			if err := WriteJSONL(path, docs); err != nil {
				return nil, err
			}
			return docs, nil
		},
	})
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

// ReadJSONL loads documents previously written by WriteJSONL.
func ReadJSONL(path string) ([]*docmodel.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("materialize: %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(zr)
	var out []*docmodel.Document
	for dec.More() {
		var d docmodel.Document
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("materialize: decode: %w", err)
		}
		out = append(out, &d)
	}
	return out, nil
}
