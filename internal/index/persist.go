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
// are rebuilt on Load, so only source data is persisted: chunks go out with
// their vectors decoded to float32, the format every earlier version wrote
// and reads, and a decoded row encodes back to the codes it came from, so
// the loaded store scores bit for bit as the saved one did.
func (s *Store) Save(path string) error {
	if err := statefile.Write(path, s.encode); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

func (s *Store) encode(w io.Writer) error {
	s.mu.RLock()
	snap := snapshot{Chunks: make([]Chunk, len(s.chunks))}
	for ord := range s.chunks {
		snap.Chunks[ord] = s.chunk(ord)
	}
	for _, id := range s.docOrder {
		snap.Docs = append(snap.Docs, s.docs[id])
	}
	s.mu.RUnlock()

	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	return zw.Close()
}

// Load reads a store snapshot from path and rebuilds the indexes. A file an
// earlier version wrote, with DocParse's whole element trees in it, loads
// into the same store a fresh ingest builds: PutDocument keeps the text view
// of whatever it is given. A truncated or corrupted file is an error.
func Load(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	s, err := decode(f)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	return s, nil
}

func decode(r io.Reader) (*Store, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var snap snapshot
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	// gob stops at the end of its message; gzip checks its checksum only at
	// the end of the stream, so read on to there.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, err
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
