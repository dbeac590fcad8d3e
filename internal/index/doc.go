// Package index is the in-process data store standing in for OpenSearch
// (§6.1): keyword (BM25) search over chunk text, typed property filters,
// and exact vector similarity search, with chunk→document
// reassembly. Luna only requires these three contracts of its backing
// store, so the substitution preserves the paper's query surface.
//
// Paper counterpart: the OpenSearch indexes Sycamore loads and Luna
// queries (§3, §6.1).
//
// What is stored is what queries read (§5–6.1): a report's properties and
// its text-representation, element by element, and the chunk texts and
// vectors — a vector as a row of 16-bit fixed-point codes and one
// multiplier, half a float32 slice's bytes, scored in integer arithmetic
// (vector.go). The layout DocParse produced on the way there (§4: boxes,
// detector confidences, table cell grids) is not: PutDocument keeps the
// document's docmodel.Document.TextView.
//
// Concurrency: Store is safe for concurrent readers and writers behind
// internal locks. Reads are zero-clone: that view is taken once on Put and
// the shared snapshot is returned directly thereafter — callers must treat
// returned documents as read-only (DocSet pipelines clone at the source
// when a plan mutates).
package index
