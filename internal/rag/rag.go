package rag

import (
	"context"
	"fmt"
	"strings"

	"aryn/internal/embed"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// Pipeline is the RAG baseline.
type Pipeline struct {
	// Store supplies vector retrieval over indexed chunks.
	Store *index.Store
	// Client answers over stuffed context.
	Client llm.Client
	// Embedder embeds the question (must match the ingestion embedder).
	Embedder embed.Embedder
	// K is the retrieval depth (the paper uses k=100).
	K int
}

// New builds the baseline with the paper's k=100 default.
func New(store *index.Store, client llm.Client, embedder embed.Embedder) *Pipeline {
	return &Pipeline{Store: store, Client: client, Embedder: embedder, K: 100}
}

// Response is a RAG answer with retrieval diagnostics.
type Response struct {
	// Text is the model's full reply.
	Text string
	// Answer is the value on the final "Answer:" line ("" if absent).
	Answer string
	// Refused marks a model refusal (context poisoning).
	Refused bool
	// Retrieved is the number of chunks fetched.
	Retrieved int
	// PoisonedChunks counts retrieved chunks carrying the liability
	// disclaimer.
	PoisonedChunks int
	// Usage is the LLM cost of the answer call (zero on a cache hit).
	Usage llm.Usage
	// CacheHit marks an answer served by the call-middleware cache.
	CacheHit bool
}

// Answer runs one question through the pipeline.
func (p *Pipeline) Answer(ctx context.Context, question string) (*Response, error) {
	// Concurrent requests share p, so the default is not written back.
	k := p.K
	if k <= 0 {
		k = 100
	}
	vec := p.Embedder.Embed(question)
	// SearchChunks hits are read-only store snapshots; the loop below only
	// reads chunk text, so the zero-clone path is safe here.
	hits := p.Store.SearchChunks(index.Query{Vector: vec, K: k})
	chunks := make([]llm.RAGChunk, 0, len(hits))
	poisoned := 0
	for _, h := range hits {
		chunks = append(chunks, llm.RAGChunk{DocID: h.Chunk.ParentID, Text: h.Chunk.Text})
		if strings.Contains(strings.ToLower(h.Chunk.Text), llm.DisclaimerMarker) {
			poisoned++
		}
	}
	resp, err := p.Client.Complete(ctx, llm.Request{Prompt: llm.RAGPrompt(question, chunks)})
	if err != nil {
		return nil, fmt.Errorf("rag: answer: %w", err)
	}
	return &Response{
		Text:           resp.Text,
		Answer:         AnswerLine(resp.Text),
		Refused:        resp.Refusal,
		Retrieved:      len(chunks),
		PoisonedChunks: poisoned,
		Usage:          resp.Usage,
		CacheHit:       resp.FromCache,
	}, nil
}

// AnswerLine extracts the value after the final "Answer:" marker.
func AnswerLine(text string) string {
	idx := strings.LastIndex(text, "Answer:")
	if idx < 0 {
		return ""
	}
	return strings.TrimSpace(text[idx+len("Answer:"):])
}
