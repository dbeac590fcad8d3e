package index

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"aryn/internal/docmodel"
	"aryn/internal/statefile"
)

func init() {
	// Concrete types carried inside Properties interface values.
	gob.Register(map[string]any{})
	gob.Register(docmodel.Properties{})
	gob.Register([]any{})
	gob.Register([]string{})
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
}

// snapshot is the serialized store state.
type snapshot struct {
	Docs   []*docmodel.Document
	Chunks []Chunk
}

// Save writes the store to path (gzip+gob). The vector and keyword indexes
// are rebuilt on Load, so only source data is persisted.
func (s *Store) Save(path string) error {
	s.mu.RLock()
	snap := snapshot{Chunks: append([]Chunk(nil), s.chunks...)}
	for _, id := range s.docOrder {
		snap.Docs = append(snap.Docs, s.docs[id])
	}
	s.mu.RUnlock()

	err := statefile.Write(path, func(w io.Writer) error {
		zw := gzip.NewWriter(w)
		if err := gob.NewEncoder(zw).Encode(snap); err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		return zw.Close()
	})
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load reads a store snapshot from path and rebuilds the indexes.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer zr.Close()
	var snap snapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, fmt.Errorf("index: load decode: %w", err)
	}
	s := NewStore()
	for _, d := range snap.Docs {
		if err := s.PutDocument(d); err != nil {
			return nil, err
		}
	}
	for _, c := range snap.Chunks {
		if err := s.PutChunk(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}
