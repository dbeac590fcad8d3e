// Package docmodel defines the hierarchical, multi-modal document model
// at the heart of Sycamore (§5.1 of the paper). A document is a tree:
// each node carries content (text or binary), an ordered list of
// children, and a set of JSON-like key/value properties. Leaf nodes are
// Elements, each labeled with one of the 11 DocLayNet layout classes.
//
// Properties are a row of key/value pairs sorted by key, not a map: a
// lookup is a binary search, All visits the pairs in key order (what a
// reader that must not depend on map order wants), Set and Merge return
// the row to keep (p = p.Set(...)), and the row's JSON is the JSON of the
// map[string]any with the same pairs, both ways. A stored text view's row
// is exactly as long as its pairs, with keys interned by the store's Keys.
//
// Paper counterpart: the DocSet element — "hierarchical documents with a
// flexible schema" (§5.1).
//
// Concurrency: documents are plain data with no internal locking. The
// system-wide sharing convention is immutable-on-write: index snapshots
// and shared-subtree replays hand out documents that must be treated as
// read-only; any pipeline that mutates clones at its source (Clone is a
// deep copy). Goroutines may read one document concurrently, never write.
package docmodel
