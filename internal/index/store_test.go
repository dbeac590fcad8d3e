package index

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
	stored, ok := storedDoc(s, "R9")
	if !ok {
		t.Fatal("R9 missing")
	}
	if stored.Property("us_state") != "TX" {
		t.Error("PutDocument must snapshot its input (immutable-on-write)")
	}
	// Zero-clone reads: repeated reads share the same snapshot.
	again, _ := storedDoc(s, "R9")
	if stored != again {
		t.Error("Documents should return the shared snapshot, not a fresh clone")
	}
	hits := s.SearchDocs(Query{Filter: Term("us_state", "TX")})
	if len(hits) != 1 || hits[0].Doc != stored {
		t.Error("SearchDocs should share the same snapshot pointer")
	}
	if s.NumDocs() != 4 || s.NumChunks() != 6 {
		t.Errorf("counts: docs=%d chunks=%d", s.NumDocs(), s.NumChunks())
	}
	if len(s.bm25.terms) == 0 {
		t.Error("vocabulary should be non-empty")
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
// go through Embed and PutChunk. What the store keeps alive afterwards must
// fit the vector (2 KB of codes + its multiplier), the text and
// overheadBytes per chunk for the chunk record and its delta-varint
// postings; with the embedder beside it, the embedder's direction cache at
// its 2 MB bound on top (a full slab: these 12,000 one-off tokens fill it).
// Before that cache was bounded it kept every one-off token's 4 KB
// direction and this read 18 KB per chunk against the 8 KB allowed. With a
// posting an 8-byte struct, the store alone read 2,919 B per chunk against
// today's 2,833.
//
// With the parents stored first, each chunk being one element of its
// report, the text is counted once per report, plus elementBytes per
// element and reportBytes per report for the stored view: a chunk that
// kept a copy of its text instead of a slice of its report's string
// (≈ 240 B) does not fit.
func TestLiveHeapPerChunk(t *testing.T) {
	const (
		n             = 4000
		perReport     = 5
		vectorBytes   = 2*embed.Dim + 8
		overheadBytes = 576
		elementBytes  = 104 // a docmodel.Element and the pointer to it
		reportBytes   = 512
		cacheBytes    = 2 << 20
	)
	texts := make([]string, n)
	textBytes := 0
	for i := range texts {
		texts[i] = fmt.Sprintf("Accident ERA%02dLA%04d: the airplane N%dQ lost engine power during cruise on 2021-%02d-%02dT%04d "+
			"and the pilot made a forced landing in a field; the airplane sustained substantial damage to the left wing.",
			i%90, i, 10000+i, 1+i%12, 1+i%28, i)
		textBytes += len(texts[i])
	}
	for _, parents := range []bool{false, true} {
		t.Run(fmt.Sprintf("parents=%v", parents), func(t *testing.T) {
			base := liveHeap()
			em := embed.NewHash(7)
			s := NewStore()
			budget := uint64(n*(vectorBytes+overheadBytes) + textBytes)
			if parents {
				for r := 0; r < n/perReport; r++ {
					d := docmodel.New(fmt.Sprintf("d%d", r))
					for _, text := range texts[r*perReport : (r+1)*perReport] {
						d.AddElement(&docmodel.Element{Type: docmodel.Text, Text: strings.Clone(text), Page: 1})
					}
					if err := s.PutDocument(d); err != nil {
						t.Fatal(err)
					}
				}
				budget += uint64(n*(elementBytes+1) + n/perReport*reportBytes)
			}
			for i, text := range texts {
				text = strings.Clone(text) // as a chunk arrives: a string of its own
				err := s.PutChunk(Chunk{ID: fmt.Sprintf("c%d", i), ParentID: fmt.Sprintf("d%d", i/perReport), Text: text, Vector: em.Embed(text)})
				if err != nil {
					t.Fatal(err)
				}
			}
			withEmbedder := liveHeap() - base
			runtime.KeepAlive(em)
			live := liveHeap() - base
			t.Logf("store %d B/chunk, budget %d B/chunk; with the embedder %d B/chunk, budget %d B/chunk",
				live/n, budget/n, withEmbedder/n, (budget+cacheBytes)/n)
			if live > budget {
				t.Errorf("the store holds %d B per chunk, budget is %d B per chunk", live/n, budget/n)
			}
			if withEmbedder > budget+cacheBytes {
				t.Errorf("store and embedder hold %d B per chunk, budget is %d B per chunk", withEmbedder/n, (budget+cacheBytes)/n)
			}
			runtime.KeepAlive(s)
		})
	}
}

// A chunk's text is kept as the slice of its parent's string where it
// occurs — after a place where only its head matches, and at the string's
// end too — and as its own copy when there is no parent or no match.
func TestChunkTextSlicesItsParent(t *testing.T) {
	const head = "The airplane sustained substantial damage to the "
	s := NewStore()
	d := docmodel.New("R1")
	for _, text := range []string{head + "left wing.", head + "right wing.", "Fuel exhaustion."} {
		d.AddElement(&docmodel.Element{Type: docmodel.Text, Text: text, Page: 1})
	}
	if err := s.PutDocument(d); err != nil {
		t.Fatal(err)
	}
	whole := s.docs["R1"].text
	for _, c := range []struct {
		parent, text string
		shared       bool
	}{
		{"R1", head + "left wing.", true},
		{"R1", head + "right wing.\nFuel exhaustion.", true},
		{"R1", "Fuel exhaustion.", true},
		{"R1", head + "tail.", false},
		{"R1", "Fuel exhaustion. More", false},
		{"R1", "", false},
		{"R2", head + "left wing.", false},
	} {
		got := s.sharedText(c.parent, strings.Clone(c.text))
		at := uintptr(unsafe.Pointer(unsafe.StringData(got))) - uintptr(unsafe.Pointer(unsafe.StringData(whole)))
		inside := got != "" && at <= uintptr(len(whole)-len(got))
		if got != c.text || inside != c.shared {
			t.Errorf("%s %q: kept %q, inside the parent's string %v, want %v", c.parent, c.text, got, inside, c.shared)
		}
	}
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
	got, _ := storedDoc(s, "X")
	if v, _ := got.Properties.Int("v"); v != 2 {
		t.Errorf("upsert should replace, v=%d", v)
	}
}

// storedDoc returns the stored document with the given ID, as Documents
// holds it.
func storedDoc(s *Store, id string) (*docmodel.Document, bool) {
	for _, d := range s.Documents() {
		if d.ID == id {
			return d, true
		}
	}
	return nil, false
}

func hitIDs(hits []DocHit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Doc.ID
	}
	return out
}
