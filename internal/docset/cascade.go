package docset

import (
	"aryn/internal/docmodel"
	"aryn/internal/index"
)

// Default proxy-cascade thresholds. The low bar is deliberately close to
// zero: a document whose text shares essentially no vocabulary with the
// question is safe to drop without asking the model. The high bar sits at
// the cosine ceiling, so by default nothing is kept on proxy score alone
// — keeps must still survive the real predicate. Savings therefore come
// from drops, which is the direction that can be made conservative.
const (
	DefaultCascadeLow  = 0.05
	DefaultCascadeHigh = 1.0
)

// LLMFilterCascade is LLMFilter behind an embedding-similarity proxy (the
// model-cascade pattern: ZenDB's cheap pre-filters, UQE's proxy scoring).
// Each question is scored against each document by cosine similarity of
// their embeddings; a score below low drops the document and a score at or
// above high answers the question "yes" without consulting the LLM, while
// the uncertain band in between escalates to the exact same LLM predicate
// as LLMFilter (same prompt bytes, same yes-prefix test), so escalated
// documents are judged identically. Escalations and proxy decisions are
// counted per document in the stage's NodeTrace.
//
// high <= 0 selects DefaultCascadeHigh; low <= 0 disables the drop rung
// entirely (cosine can go negative, so 0 is not a safe implicit floor).
func (ds *DocSet) LLMFilterCascade(questions []string, low, high float64) *DocSet {
	if high <= 0 {
		high = DefaultCascadeHigh
	}
	return ds.llmFilters(questions, low, high)
}

// proxyVector is the document side of the cascade's cheap screen: the
// embedding of the document's text (Embedder.Embed of its EmbeddingText, to
// the bit) unless ingestion already embedded it. A document read from an
// index is embedded once per store, not once per query: store keeps the
// vector (index.Store.DocVector). Anything else — an in-memory DocSet, a
// document a stage made or rewrote — is embedded here.
func proxyVector(ec *Context, store *index.Store, d *docmodel.Document) []float32 {
	switch {
	case len(d.Embedding) > 0:
		return d.Embedding
	case store != nil:
		return store.DocVector(d, ec.Embedder)
	}
	return ec.Embedder.Embed(d.EmbeddingText())
}
