// Package core is the Aryn system facade: it wires DocParse, Sycamore
// (docset), the index store, Luna, and the RAG baseline into the
// end-to-end platform of Figure 1 of the paper, exposing Ingest (the ETL
// pipeline of Fig. 4) and Ask (natural-language analytics).
//
// Paper counterpart: the assembled Aryn stack of §3 — DocParse feeding
// Sycamore feeding the index feeding Luna.
//
// Concurrency: a System's query service (Query) is swapped wholesale by
// Prepare after each ingest; concurrent readers must use the synchronized
// accessors (QueryService, Ready, Ask).
// The returned luna.Service is stateless and safe for concurrent Ask
// calls; Ingest is not reentrant — the serving layer runs one ingest at a
// time. Direct field access remains fine for single-goroutine CLI use.
package core
