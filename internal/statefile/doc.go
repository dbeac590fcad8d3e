// Package statefile is the one writer of the files arynd warm-starts from:
// the LLM response cache (llm.Cache.Save), the index snapshot
// (index.Store.Save), the optimizer's feedback store (cost.Store.Save) and
// materialized DocSets (docset.WriteJSONL). Each hands Write its encoder;
// Write owns create → sync → rename, so a crash or a failed encode leaves
// the previous file as it was. The formats stay with their packages.
//
// Concurrency: Write is safe to call concurrently, including on the same
// path (every call has its own temporary file; the last rename wins).
package statefile
