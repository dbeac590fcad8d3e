package index

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
)

// buildTestStore indexes three documents with chunked text and vectors.
func buildTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	em := embed.NewHash(1)
	docs := []struct {
		id    string
		state string
		text  []string
	}{
		{"R1", "KY", []string{
			"The airplane experienced a total loss of engine power during cruise.",
			"The airplane sustained substantial damage to the left wing.",
		}},
		{"R2", "CA", []string{
			"The pilot lost directional control during landing in gusty crosswinds.",
			"A post-crash fire consumed the fuselage.",
		}},
		{"R3", "KY", []string{
			"The airplane struck a flock of geese shortly after takeoff in July.",
			"Bird remains were found in the engine inlet.",
		}},
	}
	for _, d := range docs {
		doc := docmodel.New(d.id)
		doc.SetProperty("us_state", d.state)
		if err := s.PutDocument(doc); err != nil {
			t.Fatal(err)
		}
		for i, text := range d.text {
			err := s.PutChunk(Chunk{
				ID: fmt.Sprintf("%s-c%d", d.id, i), ParentID: d.id,
				Text: text, Vector: em.Embed(text), Page: i + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestKeywordSearchRanksRelevantDocFirst(t *testing.T) {
	s := buildTestStore(t)
	hits := s.SearchDocs(Query{Keyword: "engine power loss", K: 3})
	if len(hits) == 0 || hits[0].Doc.ID != "R1" {
		t.Fatalf("expected R1 first, got %+v", hitIDs(hits))
	}
}

func TestVectorSearchFindsSemanticMatch(t *testing.T) {
	s := buildTestStore(t)
	em := embed.NewHash(1)
	q := em.Embed("geese bird strike after takeoff")
	hits := s.SearchDocs(Query{Vector: q, K: 1})
	if len(hits) != 1 || hits[0].Doc.ID != "R3" {
		t.Fatalf("expected R3, got %v", hitIDs(hits))
	}
}

func TestFilterOnlyScanPreservesOrder(t *testing.T) {
	s := buildTestStore(t)
	hits := s.SearchDocs(Query{Filter: Term("us_state", "KY")})
	if len(hits) != 2 || hits[0].Doc.ID != "R1" || hits[1].Doc.ID != "R3" {
		t.Fatalf("KY scan = %v", hitIDs(hits))
	}
}

func TestKeywordPlusFilter(t *testing.T) {
	s := buildTestStore(t)
	// "engine" appears in R1 and R3; CA filter excludes both.
	hits := s.SearchDocs(Query{Keyword: "engine", Filter: Term("us_state", "CA")})
	if len(hits) != 0 {
		t.Fatalf("CA+engine should be empty, got %v", hitIDs(hits))
	}
	hits = s.SearchDocs(Query{Keyword: "engine", Filter: Term("us_state", "KY")})
	if len(hits) != 2 {
		t.Fatalf("KY+engine should return R1,R3: %v", hitIDs(hits))
	}
}

func TestHybridSearch(t *testing.T) {
	s := buildTestStore(t)
	em := embed.NewHash(1)
	hits := s.SearchDocs(Query{
		Keyword: "substantial damage wing",
		Vector:  em.Embed("wing damage substantial"),
		K:       2,
	})
	if len(hits) == 0 || hits[0].Doc.ID != "R1" {
		t.Fatalf("hybrid should rank R1 first: %v", hitIDs(hits))
	}
}

func TestSearchChunksForRAG(t *testing.T) {
	s := buildTestStore(t)
	em := embed.NewHash(1)
	hits := s.SearchChunks(Query{Vector: em.Embed("bird strike geese"), K: 2})
	if len(hits) != 2 {
		t.Fatalf("want 2 chunks, got %d", len(hits))
	}
	if hits[0].Chunk.ParentID != "R3" {
		t.Errorf("top chunk should come from R3, got %s", hits[0].Chunk.ParentID)
	}
}

func TestSearchChunksNoSignalReturnsAll(t *testing.T) {
	s := buildTestStore(t)
	hits := s.SearchChunks(Query{})
	if len(hits) != 6 {
		t.Fatalf("want all 6 chunks, got %d", len(hits))
	}
}

func TestKLimit(t *testing.T) {
	s := buildTestStore(t)
	hits := s.SearchDocs(Query{Keyword: "the airplane pilot engine", K: 1})
	if len(hits) != 1 {
		t.Fatalf("K=1 should cap results, got %d", len(hits))
	}
}

func TestDocumentAccessorsAndSnapshotSemantics(t *testing.T) {
	s := buildTestStore(t)
	// Immutable-on-write: mutating the caller's document after PutDocument
	// must not leak into the stored snapshot.
	original := docmodel.New("R9")
	original.SetProperty("us_state", "TX")
	if err := s.PutDocument(original); err != nil {
		t.Fatal(err)
	}
	original.SetProperty("us_state", "MUTATED")
	stored, ok := s.Document("R9")
	if !ok {
		t.Fatal("R9 missing")
	}
	if stored.Property("us_state") != "TX" {
		t.Error("PutDocument must snapshot its input (immutable-on-write)")
	}
	// Zero-clone reads: repeated reads share the same snapshot.
	again, _ := s.Document("R9")
	if stored != again {
		t.Error("Document should return the shared snapshot, not a fresh clone")
	}
	hits := s.SearchDocs(Query{Filter: Term("us_state", "TX")})
	if len(hits) != 1 || hits[0].Doc != stored {
		t.Error("SearchDocs should share the same snapshot pointer")
	}
	if s.NumDocs() != 4 || s.NumChunks() != 6 {
		t.Errorf("counts: docs=%d chunks=%d", s.NumDocs(), s.NumChunks())
	}
	if s.VocabSize() == 0 {
		t.Error("vocabulary should be non-empty")
	}
	if _, ok := s.Document("nope"); ok {
		t.Error("missing doc should report !ok")
	}
}

// TestSearchDocsUnderfillWidensFetch reproduces the K*8 over-fetch
// exhaustion: a selective parent filter rejects every top-ranked chunk, so
// the first pass under-fills and the store must widen to a full ranking.
func TestSearchDocsUnderfillWidensFetch(t *testing.T) {
	s := NewStore()
	// 40 high-scoring non-KY docs: "engine" three times in a short chunk.
	for i := 0; i < 40; i++ {
		d := docmodel.New(fmt.Sprintf("N%02d", i))
		d.SetProperty("us_state", "CA")
		if err := s.PutDocument(d); err != nil {
			t.Fatal(err)
		}
		err := s.PutChunk(Chunk{
			ID: d.ID + "-c", ParentID: d.ID,
			Text: "engine engine engine",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// 2 KY docs ranked below all of them: one "engine" diluted by padding.
	for i := 0; i < 2; i++ {
		d := docmodel.New(fmt.Sprintf("K%02d", i))
		d.SetProperty("us_state", "KY")
		if err := s.PutDocument(d); err != nil {
			t.Fatal(err)
		}
		err := s.PutChunk(Chunk{
			ID: d.ID + "-c", ParentID: d.ID,
			Text: "engine surrounded by much much longer padding narrative text diluting term frequency statistics considerably",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// K=2 ranks 16 chunks on the first pass — all CA. The widened retry
	// must still find both KY docs.
	hits := s.SearchDocs(Query{Keyword: "engine", Filter: Term("us_state", "KY"), K: 2})
	if len(hits) != 2 {
		t.Fatalf("filtered search should fill K=2 after widening, got %d hits", len(hits))
	}
	for _, h := range hits {
		if h.Doc.Property("us_state") != "KY" {
			t.Errorf("filter violated: %s", h.Doc.ID)
		}
	}
	// Same under-fill at chunk granularity.
	chunks := s.SearchChunks(Query{Keyword: "engine", Filter: Term("us_state", "KY"), K: 2})
	if len(chunks) != 2 {
		t.Fatalf("filtered chunk search should fill K=2 after widening, got %d", len(chunks))
	}
}

// TestStoreConcurrentReadWrite interleaves writers and zero-clone readers;
// run under -race (make test) this proves the snapshot read path is safe
// alongside concurrent ingestion.
func TestStoreConcurrentReadWrite(t *testing.T) {
	s := buildTestStore(t)
	em := embed.NewHash(1)
	qvec := em.Embed("engine power loss")
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				d := docmodel.New(fmt.Sprintf("W%d-%03d", w, i))
				d.SetProperty("us_state", "KY")
				if err := s.PutDocument(d); err != nil {
					t.Error(err)
					return
				}
				err := s.PutChunk(Chunk{
					ID: d.ID + "-c", ParentID: d.ID,
					Text:   fmt.Sprintf("engine narrative %d from writer %d", i, w),
					Vector: em.Embed(fmt.Sprintf("engine narrative %d", i)),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, h := range s.SearchDocs(Query{Keyword: "engine narrative", K: 5}) {
					_ = h.Doc.Property("us_state") // read-only access
				}
				s.SearchChunks(Query{Vector: qvec, K: 5})
				for _, d := range s.Documents() {
					_ = d.Property("us_state")
				}
			}
		}()
	}
	// Readers overlap the full write burst, then wind down.
	writers.Wait()
	close(stop)
	readers.Wait()
	if s.NumDocs() != 3+200 {
		t.Errorf("docs after concurrent writes = %d, want %d", s.NumDocs(), 203)
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLiveHeapPerChunk is the retrieval state's memory budget. 4,000
// chunks, each with three tokens no other chunk has (an accident number, a
// registration, a date — what makes most of a real corpus's vocabulary),
// go through Embed and PutChunk; what stays live afterwards must fit
// vector (2 KB of codes + its multiplier) + text + 1.5 KB per chunk for the
// chunk record, postings and index slack, plus the embedder's direction
// cache at its 8 MB bound.
// Before that cache was bounded at 2,048 entries it kept every one-off
// token's 4 KB direction and this read 18 KB per chunk against the 8 KB
// allowed.
func TestLiveHeapPerChunk(t *testing.T) {
	const (
		n             = 4000
		vectorBytes   = 2*embed.Dim + 8
		overheadBytes = 1536
		cacheBytes    = 8 << 20
	)
	base := liveHeap()
	em := embed.NewHash(7)
	s := NewStore()
	textBytes := 0
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("Accident ERA%02dLA%04d: the airplane N%dQ lost engine power during cruise on 2021-%02d-%02dT%04d "+
			"and the pilot made a forced landing in a field; the airplane sustained substantial damage to the left wing.",
			i%90, i, 10000+i, 1+i%12, 1+i%28, i)
		textBytes += len(text)
		err := s.PutChunk(Chunk{ID: fmt.Sprintf("c%d", i), ParentID: fmt.Sprintf("d%d", i/5), Text: text, Vector: em.Embed(text)})
		if err != nil {
			t.Fatal(err)
		}
	}
	live := liveHeap() - base
	budget := uint64(n*(vectorBytes+overheadBytes) + textBytes + cacheBytes)
	t.Logf("live heap %d B/chunk, budget %d B/chunk", live/n, budget/n)
	if live > budget {
		t.Errorf("retrieval state holds %d B per chunk, budget is %d B per chunk", live/n, budget/n)
	}
	runtime.KeepAlive(em)
	runtime.KeepAlive(s)
}

func TestPutValidation(t *testing.T) {
	s := NewStore()
	if err := s.PutDocument(docmodel.New("")); err == nil {
		t.Error("empty ID should be rejected")
	}
	if err := s.PutChunk(Chunk{ID: "c"}); err == nil {
		t.Error("chunk without parent should be rejected")
	}
}

func TestUpsertDocument(t *testing.T) {
	s := NewStore()
	d := docmodel.New("X")
	d.SetProperty("v", 1)
	_ = s.PutDocument(d)
	d2 := docmodel.New("X")
	d2.SetProperty("v", 2)
	_ = s.PutDocument(d2)
	if s.NumDocs() != 1 {
		t.Fatalf("upsert should not duplicate, docs=%d", s.NumDocs())
	}
	got, _ := s.Document("X")
	if v, _ := got.Properties.Int("v"); v != 2 {
		t.Errorf("upsert should replace, v=%d", v)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := buildTestStore(t)
	path := filepath.Join(t.TempDir(), "store.gob.gz")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumDocs() != 3 || loaded.NumChunks() != 6 {
		t.Fatalf("loaded counts: %d docs %d chunks", loaded.NumDocs(), loaded.NumChunks())
	}
	// Indexes are rebuilt: search must work identically.
	hits := loaded.SearchDocs(Query{Keyword: "engine power loss", K: 1})
	if len(hits) != 1 || hits[0].Doc.ID != "R1" {
		t.Errorf("post-load search broken: %v", hitIDs(hits))
	}
	d, _ := loaded.Document("R1")
	if d.Property("us_state") != "KY" {
		t.Error("properties lost in round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.gob")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestSaveToBadPath(t *testing.T) {
	s := NewStore()
	if err := s.Save(filepath.Join(string(os.PathSeparator), "no", "such", "dir", "f")); err == nil {
		t.Error("saving to an invalid path should error")
	}
}

func hitIDs(hits []DocHit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Doc.ID
	}
	return out
}

// TestDocVectorKeptPerStoredDocument walks DocVector's contract at the
// store: the vector is Embed of the document's text; the stored snapshot and
// a clone of it share the one kept slice; a document that has the ID but
// another text, or an ID the store does not hold, is embedded on its own and
// keeps nothing; PutDocument drops the replaced document's vector.
func TestDocVectorKeptPerStoredDocument(t *testing.T) {
	s := NewStore()
	em := embed.NewHash(1)
	put := func(id, text string) *docmodel.Document {
		d := docmodel.New(id)
		d.Text = text
		if err := s.PutDocument(d); err != nil {
			t.Fatal(err)
		}
		stored, _ := s.Document(id)
		return stored
	}
	a := put("A", "The airplane struck a flock of geese.")
	put("B", "A post-crash fire consumed the fuselage.")

	first := s.DocVector(a, em)
	if want := em.Embed(a.Text); !slices.Equal(first, want) {
		t.Fatal("DocVector is not Embed of the document's text")
	}
	if again := s.DocVector(a.Clone(), em); &again[0] != &first[0] {
		t.Error("a clone of the stored document did not receive the kept vector")
	}

	other := docmodel.New("A")
	other.Text = "us_state=KY: three reports merged by a reduce."
	if got := s.DocVector(other, em); !slices.Equal(got, em.Embed(other.Text)) || &got[0] == &first[0] {
		t.Error("a document with the stored ID and another text was not embedded by its own text")
	}
	if kept := s.DocVector(a, em); &kept[0] != &first[0] {
		t.Error("the other-text document displaced the stored document's vector")
	}
	stranger := docmodel.New("Z")
	stranger.Text = "not in the store"
	s.DocVector(stranger, em)
	if len(s.docVecs) != 1 {
		t.Errorf("store keeps %d vectors, want 1: only the stored, scored document A", len(s.docVecs))
	}

	replaced := put("A", "The pilot ran the left tank dry.")
	if len(s.docVecs) != 0 {
		t.Errorf("PutDocument left %d vectors, want the replaced document's dropped", len(s.docVecs))
	}
	if got := s.DocVector(a, em); !slices.Equal(got, first) || len(s.docVecs) != 0 {
		t.Error("the replaced snapshot was not embedded by its own text, or took the new document's place")
	}
	if got := s.DocVector(replaced, em); !slices.Equal(got, em.Embed(replaced.Text)) || len(s.docVecs) != 1 {
		t.Error("the re-put document did not get and keep its own vector")
	}
}
