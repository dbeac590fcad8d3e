package index

import (
	"fmt"
	"slices"
	"sync"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
)

// Chunk is one indexed unit of text with provenance back to its parent
// document. Indexing happens at chunk granularity; query results are
// reassembled into documents (§6.1).
//
// Vector is the chunk's embedding. Only its direction is indexed (search
// ranks by cosine), so what PutChunk reads at any length, a hit carries back
// at unit length: the row the store scores, decoded.
type Chunk struct {
	ID       string
	ParentID string
	Text     string
	Vector   []float32
	Page     int
}

// Store is the in-process document store: parent documents with their
// properties, plus a chunk-level BM25 inverted index and vector index.
// Safe for concurrent use.
//
// The store keeps what queries read and no more: PutDocument stores the
// document's text view (docmodel.Document.TextView: properties, and per
// element type, page and text), not the layout tree DocParse produced —
// boxes, detector confidences and table cell grids stop here. A DocSet that
// must keep its layout is what docset materialization is for.
//
// Documents are immutable-on-write: that view is taken once, and every read
// path (Document, Documents, SearchDocs) returns it directly — zero copies
// per hit. Returned documents are shared and MUST be treated as read-only;
// callers that need to mutate take an explicit copy with Document.Clone (the
// docset sources do this automatically when a pipeline contains a mutating
// operator).
type Store struct {
	mu   sync.RWMutex
	docs map[string]*docmodel.Document
	// docOrder is every document ID, sorted: the order of Documents and
	// of filter-only scans. Ingest writes from parallel workers, so arrival
	// order is scheduling; ID order is the same on every boot.
	docOrder []string
	// docVecs holds, for each stored document a cascade has scored, the
	// embedding of its text (DocVector): at most one vector per document,
	// computed on first use, dropped when PutDocument replaces the document.
	docVecs map[string][]float32
	chunks  []storedChunk
	bm25    *bm25Index
	vec     *Exact
}

// storedChunk is a Chunk as the store keeps it: everything but the vector,
// which is row `row` of the vector index (noRow for a chunk put without
// one) — 16-bit codes there, never a []float32 here.
type storedChunk struct {
	id, parentID, text string
	page               int
	row                int
}

const noRow = -1

// chunk is stored chunk ord as callers see it. Its Vector is the decoded
// row, a fresh slice: the unit vector searches score, to float32.
func (s *Store) chunk(ord int) Chunk {
	sc := s.chunks[ord]
	c := Chunk{ID: sc.id, ParentID: sc.parentID, Text: sc.text, Page: sc.page}
	if sc.row != noRow {
		c.Vector = s.vec.rows[sc.row].decode()
	}
	return c
}

// NewStore returns an empty store; vector search is exact brute force.
func NewStore() *Store {
	return &Store{
		docs:    make(map[string]*docmodel.Document),
		docVecs: make(map[string][]float32),
		bm25:    newBM25(),
		vec:     NewExact(),
	}
}

// PutDocument upserts a parent document (replacing any prior version with
// the same ID). What is stored is the input's text view, taken once here —
// the immutable-on-write snapshot every later read shares, sharing nothing
// mutable with d. Chunk postings for replaced documents are not rewritten;
// re-ingest into a fresh store for full replacement semantics, as with an
// OpenSearch reindex.
func (s *Store) PutDocument(d *docmodel.Document) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("index: document must have an ID")
	}
	view := d.TextView() // renders tables: before the write lock
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, found := slices.BinarySearch(s.docOrder, d.ID); !found {
		s.docOrder = slices.Insert(s.docOrder, i, d.ID)
	}
	s.docs[d.ID] = view
	delete(s.docVecs, d.ID)
	return nil
}

// DocVector returns e.Embed(d.EmbeddingText()), bit for bit, embedding a
// stored document's text once instead of once per query that scores it. The
// kept vector belongs to the stored snapshot's text, not to its ID: d
// receives it only when it is that snapshot or carries the same text (the
// clone a mutating plan takes at its source), so a document that shares
// nothing with the stored one but the ID — a group a reduce emitted, a text
// a stage rewrote — is embedded on its own and keeps nothing. Like the chunk
// vectors, what is kept assumes the store is used with one embedder. The
// returned slice is shared: read-only. Safe for concurrent use; two queries
// that race to a document's first scoring both embed it, to the same bits.
func (s *Store) DocVector(d *docmodel.Document, e embed.Embedder) []float32 {
	s.mu.RLock()
	stored, vec := s.docs[d.ID], s.docVecs[d.ID]
	s.mu.RUnlock()
	if stored == d && vec != nil {
		return vec
	}
	text := d.EmbeddingText()
	if stored == nil || (stored != d && stored.EmbeddingText() != text) {
		return e.Embed(text)
	}
	if vec == nil {
		vec = e.Embed(text)
		s.mu.Lock()
		if s.docs[d.ID] == stored { // not replaced meanwhile
			s.docVecs[d.ID] = vec
		}
		s.mu.Unlock()
	}
	return vec
}

// PutChunk indexes one text chunk (keyword + vector). c.Vector is read, not
// kept: the store holds its direction as a row of the vector index. A vector
// with a NaN or ±Inf component is an error, and the chunk is not indexed.
func (s *Store) PutChunk(c Chunk) error {
	if c.ParentID == "" {
		return fmt.Errorf("index: chunk %q must reference a parent document", c.ID)
	}
	// Everything that needs no store state happens before the write lock:
	// tokenizing, and encoding the vector.
	terms := countTerms(c.Text)
	r, err := encodeRow(c.Vector) // of a nil vector: an empty row, not indexed
	if err != nil {
		return fmt.Errorf("index: chunk %q: %w", c.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ord := len(s.chunks)
	sc := storedChunk{id: c.ID, parentID: c.ParentID, text: c.Text, page: c.Page, row: noRow}
	if c.Vector != nil {
		sc.row = s.vec.add(ord, r)
	}
	s.chunks = append(s.chunks, sc)
	s.bm25.add(ord, terms)
	return nil
}

// Document returns the stored parent document by ID. The returned
// document is the store's shared immutable snapshot: read-only (Clone
// before mutating).
func (s *Store) Document(id string) (*docmodel.Document, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, false
	}
	return d, true
}

// Documents returns all parent documents in ID order, as shared read-only
// snapshots.
func (s *Store) Documents() []*docmodel.Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*docmodel.Document, 0, len(s.docOrder))
	for _, id := range s.docOrder {
		out = append(out, s.docs[id])
	}
	return out
}

// NumDocs reports the parent document count.
func (s *Store) NumDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// NumChunks reports the indexed chunk count.
func (s *Store) NumChunks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// VocabSize reports the BM25 vocabulary size.
func (s *Store) VocabSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bm25.vocabSize()
}

// Query describes one retrieval: keyword search, vector search, a property
// filter, or any combination. Zero-value fields are unused.
type Query struct {
	// Keyword ranks chunks by BM25 when non-empty.
	Keyword string
	// Vector ranks chunks by cosine similarity when non-nil.
	Vector []float32
	// Filter restricts results by parent-document properties.
	Filter Predicate
	// K limits the result count (0 = no limit).
	K int
}

// DocHit is one reassembled document result.
type DocHit struct {
	Doc   *docmodel.Document
	Score float64
}

// ChunkHit is one chunk-granularity result (used by the RAG baseline).
type ChunkHit struct {
	Chunk Chunk
	Score float64
}

// SearchDocs runs the query and returns parent documents, reassembled from
// their best-matching chunks, ordered by descending score (ID order for
// pure filter scans). Hit documents are shared read-only snapshots
// (see the Store doc comment).
func (s *Store) SearchDocs(q Query) []DocHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	filter := q.Filter
	if filter == nil {
		filter = MatchAll()
	}

	ranked, truncated := s.rankChunks(q, overFetch(q.K))
	if ranked == nil && !truncated {
		// Pure metadata scan.
		var out []DocHit
		for _, id := range s.docOrder {
			d := s.docs[id]
			if filter.Match(d.Properties) {
				out = append(out, DocHit{Doc: d, Score: 1})
				if q.K > 0 && len(out) == q.K {
					break
				}
			}
		}
		return out
	}

	out := s.collectDocHits(ranked, filter, q.K)
	if q.K > 0 && len(out) < q.K && truncated {
		// Under-fill: the parent filter rejected most of the over-fetched
		// ranking. Widen to a full ranking so selective filters still fill K.
		ranked, _ = s.rankChunks(q, len(s.chunks))
		out = s.collectDocHits(ranked, filter, q.K)
	}
	return out
}

// collectDocHits groups ranked chunks by parent (best score per parent,
// first-seen rank order) and applies the parent-property filter.
func (s *Store) collectDocHits(ranked []Scored, filter Predicate, k int) []DocHit {
	best := map[string]float64{}
	var order []string
	for _, sc := range ranked {
		pid := s.chunks[sc.Doc].parentID
		if _, seen := best[pid]; !seen {
			order = append(order, pid)
			best[pid] = sc.Score
		}
	}
	var out []DocHit
	for _, pid := range order {
		d, ok := s.docs[pid]
		if !ok || !filter.Match(d.Properties) {
			continue
		}
		out = append(out, DocHit{Doc: d, Score: best[pid]})
		if k > 0 && len(out) == k {
			break
		}
	}
	return out
}

// SearchChunks runs the query at chunk granularity (RAG retrieval path).
func (s *Store) SearchChunks(q Query) []ChunkHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	filter := q.Filter
	if filter == nil {
		filter = MatchAll()
	}
	ranked, truncated := s.rankChunks(q, overFetch(q.K))
	if ranked == nil && !truncated {
		// No ranking signal: return chunks in index order.
		ranked = make([]Scored, 0, len(s.chunks))
		for i := range s.chunks {
			ranked = append(ranked, Scored{Doc: i, Score: 1})
		}
	}
	out := s.collectChunkHits(ranked, filter, q.K)
	if q.K > 0 && len(out) < q.K && truncated {
		// Widen as in SearchDocs: selective parent filters must still fill K.
		ranked, _ = s.rankChunks(q, len(s.chunks))
		out = s.collectChunkHits(ranked, filter, q.K)
	}
	return out
}

// collectChunkHits applies the parent-property filter to a ranked chunk
// list, capped at k.
func (s *Store) collectChunkHits(ranked []Scored, filter Predicate, k int) []ChunkHit {
	var out []ChunkHit
	for _, sc := range ranked {
		if parent, ok := s.docs[s.chunks[sc.Doc].parentID]; ok && !filter.Match(parent.Properties) {
			continue
		}
		out = append(out, ChunkHit{Chunk: s.chunk(sc.Doc), Score: sc.Score})
		if k > 0 && len(out) == k {
			break
		}
	}
	return out
}

// overFetch is the first-pass ranking depth for a K-limited query: enough
// headroom that typical parent filters still fill K without ranking the
// whole corpus.
func overFetch(k int) int {
	if k <= 0 {
		return 0
	}
	return k * 8
}

// rankChunks produces a ranked chunk list of depth fetch (0 = unlimited)
// for the query's search signal, or nil when the query has no
// keyword/vector component. truncated reports whether the ranking may
// have more candidates beyond fetch — the signal SearchDocs/SearchChunks
// use to widen after an under-fill.
func (s *Store) rankChunks(q Query, fetch int) (ranked []Scored, truncated bool) {
	mayHaveMore := func(list []Scored) bool {
		return fetch > 0 && len(list) >= fetch && fetch < len(s.chunks)
	}
	switch {
	case q.Keyword != "" && q.Vector != nil:
		// Hybrid: reciprocal-rank fusion of both rankings. The fused list
		// may be incomplete when either side hit its fetch cap OR the
		// union itself got truncated to fetch (both sides under their
		// caps can still fuse to more than fetch distinct chunks).
		kw := s.bm25.search(q.Keyword, fetch)
		vs := s.vec.Search(q.Vector, fetch)
		fused := fuseRRF(kw, vs, fetch)
		return fused, mayHaveMore(kw) || mayHaveMore(vs) || mayHaveMore(fused)
	case q.Keyword != "":
		ranked = s.bm25.search(q.Keyword, fetch)
		return ranked, mayHaveMore(ranked)
	case q.Vector != nil:
		ranked = s.vec.Search(q.Vector, fetch)
		return ranked, mayHaveMore(ranked)
	default:
		return nil, false
	}
}

// fuseRRF merges two rankings with reciprocal rank fusion (k=60), the
// standard hybrid-search combiner. Top-k selection is heap-bounded.
func fuseRRF(a, b []Scored, k int) []Scored {
	const rrfK = 60.0
	score := map[int]float64{}
	add := func(list []Scored) {
		for rank, sc := range list {
			score[sc.Doc] += 1 / (rrfK + float64(rank+1))
		}
	}
	add(a)
	add(b)
	if k > 0 && k < len(score) {
		t := newTopK(k)
		for d, s := range score {
			t.offer(Scored{Doc: d, Score: s})
		}
		return t.take()
	}
	out := make([]Scored, 0, len(score))
	for d, s := range score {
		out = append(out, Scored{Doc: d, Score: s})
	}
	return selectTopK(out, 0)
}
