package docset

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
	"aryn/internal/llm"
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
// Each document is scored by cosine similarity between the question
// embedding and the document embedding; scores below low are dropped and
// scores at or above high are kept without consulting the LLM, while the
// uncertain band in between escalates to the exact same LLM predicate as
// LLMFilter (same prompt bytes, same yes-prefix test), so escalated
// documents are judged identically. Escalations and proxy decisions are
// counted in the stage's NodeTrace.
//
// high <= 0 selects DefaultCascadeHigh; low <= 0 disables the drop rung
// entirely (cosine can go negative, so 0 is not a safe implicit floor).
func (ds *DocSet) LLMFilterCascade(question string, low, high float64) *DocSet {
	if high <= 0 {
		high = DefaultCascadeHigh
	}
	var once sync.Once
	var qvec []float32
	return ds.with(stageSpec{
		name:       fmt.Sprintf("llmFilterCascade[%s, band=%g..%g]", question, low, high),
		kind:       mapKind,
		callsModel: true,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			once.Do(func() { qvec = ec.Embedder.Embed(question) })
			score := proxyScore(ec, qvec, d)
			switch {
			case low > 0 && score < low:
				if ec.nt != nil {
					atomic.AddInt64(&ec.nt.ProxyDropped, 1)
				}
				return nil, nil
			case score >= high:
				if ec.nt != nil {
					atomic.AddInt64(&ec.nt.ProxyKept, 1)
				}
				return []*docmodel.Document{d}, nil
			}
			if ec.nt != nil {
				atomic.AddInt64(&ec.nt.Escalations, 1)
			}
			prompt := llm.FilterPrompt(question, d.TextContent())
			resp, err := ec.complete(llm.Request{Prompt: prompt})
			if err != nil {
				return nil, err
			}
			if strings.HasPrefix(strings.ToLower(strings.TrimSpace(resp.Text)), "yes") {
				return []*docmodel.Document{d}, nil
			}
			return nil, nil
		},
	})
}

// proxyScore is the cascade's cheap screen: cosine similarity between the
// question vector and the document's embedding (computed on the fly from
// the document text when ingestion did not embed it).
func proxyScore(ec *Context, qvec []float32, d *docmodel.Document) float64 {
	dvec := d.Embedding
	if len(dvec) == 0 {
		text := d.Text
		if text == "" {
			text = d.TextContent()
		}
		dvec = ec.Embedder.Embed(text)
	}
	return embed.Cosine(qvec, dvec)
}
