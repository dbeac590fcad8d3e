package index

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aryn/internal/docmodel"
)

// smallSnapshot is a two-report store as Save writes it, small enough
// (≈ 700 bytes) to damage at every byte.
func smallSnapshot(t testing.TB) (*Store, []byte) {
	t.Helper()
	s := NewStore()
	for i, id := range []string{"R1", "R2"} {
		d := docmodel.New(id)
		d.Title = "Report " + id
		d.SetProperty("us_state", []string{"KY", "CA"}[i])
		d.SetProperty("engines", i+1)
		d.AddElement(&docmodel.Element{Type: docmodel.SectionHeader, Text: "Analysis", Page: 1})
		d.AddElement(&docmodel.Element{Type: docmodel.Table, Page: 2, Table: &docmodel.TableData{
			NumRows: 1, NumCols: 2, Cells: []docmodel.TableCell{{Text: "Damage"}, {Col: 1, Text: "Substantial"}},
		}})
		if err := s.PutDocument(d); err != nil {
			t.Fatal(err)
		}
		if err := s.PutChunk(Chunk{ID: id + "#m1", ParentID: id, Text: "loss of engine power " + id, Vector: []float32{1, float32(i), 0, 0}, Page: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.encode(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// nanSnapshot is a snapshot no Save writes but a file can hold: one chunk
// whose vector has a NaN component.
func nanSnapshot(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	snap := snapshot{
		Docs:   []*docmodel.Document{docmodel.New("R1")},
		Chunks: []Chunk{{ID: "R1#m1", ParentID: "R1", Text: "loss of engine power", Vector: []float32{1, float32(math.NaN()), 0, 0}}},
	}
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// describe is everything a query can read of a store.
func describe(s *Store) string {
	var b bytes.Buffer
	for _, d := range s.Documents() {
		b.WriteString(d.ID + " " + d.Title + " " + d.Properties.JSON() + "\n" + d.TextContent())
	}
	for _, h := range s.SearchChunks(Query{Keyword: "engine power", Vector: []float32{1, 1, 0, 0}}) {
		b.WriteString(h.Chunk.ID + " " + h.Chunk.Text + "\n")
	}
	return b.String()
}

// A snapshot cut short at any byte, or with any one bit flipped, is an error
// from the loader — or, where the bit is one gzip does not check (its
// header's time stamp, flags and OS byte, the padding that ends the stream),
// the store that was saved. It is never a panic and never another store.
func TestLoadRejectsDamagedSnapshots(t *testing.T) {
	saved, whole := smallSnapshot(t)
	want := describe(saved)
	for n := 0; n < len(whole); n++ {
		if _, err := decode(bytes.NewReader(whole[:n])); err == nil {
			t.Errorf("a snapshot truncated to %d of %d bytes loaded", n, len(whole))
		}
	}
	rejected := 0
	for i := range whole {
		for bit := 0; bit < 8; bit++ {
			damaged := bytes.Clone(whole)
			damaged[i] ^= 1 << bit
			s, err := decode(bytes.NewReader(damaged))
			if err != nil {
				rejected++
			} else if got := describe(s); got != want {
				t.Errorf("bit %d of byte %d flipped: loaded another store:\n%s", bit, i, got)
			}
		}
	}
	// The gzip header is 10 bytes; every flip past it but the padding is caught.
	if loaded := 8*len(whole) - rejected; loaded > 8*10 {
		t.Errorf("%d of %d single-bit flips loaded", loaded, 8*len(whole))
	}

	// The same through files: whole, cut in half, one bit flipped, empty.
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x10
	path := filepath.Join(t.TempDir(), "store.gob.gz")
	for name, data := range map[string][]byte{"whole": whole, "half": whole[:len(whole)/2], "flipped": flipped, "empty": nil} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(path)
		if name == "whole" {
			if err != nil || describe(s) != want {
				t.Errorf("the undamaged snapshot must load as saved: %v", err)
			}
		} else if err == nil {
			t.Errorf("Load accepted the %s file", name)
		}
	}
}

// A well-formed snapshot whose chunk vector holds a NaN is an error, as the
// same PutChunk is: indexed, the row scored NaN against every query.
func TestLoadRejectsNaNVector(t *testing.T) {
	if _, err := decode(bytes.NewReader(nanSnapshot(t))); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("decode of a snapshot with a NaN vector: %v", err)
	}
}

// FuzzIndexLoad feeds the snapshot loader arbitrary bytes: an error or a
// usable store, never a panic.
func FuzzIndexLoad(f *testing.F) {
	_, whole := smallSnapshot(f)
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(nanSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		describe(s)
	})
}
