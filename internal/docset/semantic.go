package docset

import (
	"encoding/json"
	"fmt"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
)

// This file implements the semantic operators of Table 2b: transforms
// driven by LLM prompts. They are kept separate from the structured
// operators because — as the paper notes (§5.2) — they behave differently
// in practice: non-deterministic in general, and users want to inspect
// their outputs (which the lineage trace supports).

// LLMExtract pulls the given fields out of each document's text content
// with one LLM call per document, merging the results into the document's
// properties — Fig. 4/5's OpenAIPropertyExtractor.
func (ds *DocSet) LLMExtract(fields []llm.FieldSpec) *DocSet {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	return ds.with(stageSpec{
		name:       "llmExtract[" + strings.Join(names, ",") + "]",
		kind:       mapKind,
		callsModel: true,
		mutates:    true, // merges extracted fields into d.Properties
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			prompt := llm.ExtractPrompt(fields, d.TextContent())
			resp, err := ec.complete(llm.Request{Prompt: prompt})
			if err != nil {
				return nil, err
			}
			var extracted map[string]any
			if err := json.Unmarshal([]byte(resp.Text), &extracted); err != nil {
				return nil, fmt.Errorf("llmExtract: model returned non-JSON for %s: %w", d.ID, err)
			}
			for k, v := range extracted {
				if v != nil {
					d.SetProperty(k, v)
				}
			}
			return []*docmodel.Document{d}, nil
		},
	})
}

// LLMFilter keeps documents for which the LLM answers the natural-language
// predicate affirmatively (Table 2b).
func (ds *DocSet) LLMFilter(question string) *DocSet {
	return ds.with(stageSpec{
		name:       "llmFilter[" + question + "]",
		kind:       mapKind,
		callsModel: true,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
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

// LLMReduceByKey groups documents by the given property and has the LLM
// combine each group into a single summary document (Table 2b). It is the
// composition the paper describes: a structured reduce to form groups,
// then one narrow LLM call per group.
func (ds *DocSet) LLMReduceByKey(keyField, instruction string) *DocSet {
	grouped := ds.reduceByKey("group:"+keyField, func(d *docmodel.Document) string {
		return d.Property(keyField)
	}, func(key string, docs []*docmodel.Document) (*docmodel.Document, error) {
		merged := docmodel.New(keyField + "=" + key)
		merged.SetProperty(keyField, key)
		merged.SetProperty("group_size", len(docs))
		items := make([]string, 0, len(docs))
		for _, d := range docs {
			items = append(items, strings.ReplaceAll(d.TextContent(), "\n", " "))
		}
		merged.Text = strings.Join(items, "\n")
		return merged, nil
	}, false) // reduce reads members and emits fresh group documents
	return grouped.with(stageSpec{
		name:       "llmCombine[" + instruction + "]",
		kind:       mapKind,
		callsModel: true,
		mutates:    true, // rewrites d.Text with the combined summary
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			items := strings.Split(d.Text, "\n")
			prompt := llm.SummarizePrompt(instruction, items)
			resp, err := ec.complete(llm.Request{Prompt: prompt})
			if err != nil {
				return nil, err
			}
			d.Text = resp.Text
			return []*docmodel.Document{d}, nil
		},
	})
}

// Embed computes an embedding vector for each document's text (Table 2b).
func (ds *DocSet) Embed() *DocSet {
	return ds.with(stageSpec{
		name:    "embed",
		kind:    mapKind,
		mutates: true, // assigns d.Embedding
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			text := d.Text
			if text == "" {
				text = d.TextContent()
			}
			d.Embedding = ec.Embedder.Embed(text)
			return []*docmodel.Document{d}, nil
		},
	})
}

// Summarize collapses the whole DocSet into one generated answer document
// — the llmGenerate logical operator, "the G in RAG" (§6.1), usually the
// last step of a plan.
func (ds *DocSet) Summarize(instruction string) *DocSet {
	return ds.with(stageSpec{
		name:  "llmGenerate[" + instruction + "]",
		kind:  barrierKind,
		fresh: true, // emits a single new summary document
		barrierFn: func(ec *Context, docs []*docmodel.Document) ([]*docmodel.Document, error) {
			items := make([]string, 0, len(docs))
			for _, d := range docs {
				items = append(items, d.TextContent())
			}
			prompt := llm.SummarizePrompt(instruction, items)
			resp, err := ec.complete(llm.Request{Prompt: prompt})
			if err != nil {
				return nil, err
			}
			out := docmodel.New("summary")
			out.Text = resp.Text
			out.SetProperty("source_count", len(docs))
			return []*docmodel.Document{out}, nil
		},
	})
}
