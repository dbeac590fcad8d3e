package docset

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

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
	return ds.llmExtract(fields, false)
}

// llmExtract is the one extract stage behind LLMExtract and
// LLMExtractScoped. A scoped stage asks the model about the document's scope
// first (scopeText) and keeps that reply unless it leaves null a field the
// rest of the document mentions; such a document, or one with no scope, is
// asked whole — the prompt, and so the cache entry, of the unscoped stage.
// The stage's NodeTrace counts both calls, and each scoped document as
// ProxyKept (answered from its scope) or an Escalation.
func (ds *DocSet) llmExtract(fields []llm.FieldSpec, scoped bool) *DocSet {
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	name := "llmExtract[" + strings.Join(names, ",") + "]"
	var terms *termSets
	if scoped {
		name = "llmExtract[" + strings.Join(names, ",") + ", sections=1]"
		terms = fieldTerms(fields)
	}
	ask := func(ec *Context, d *docmodel.Document, text string) (docmodel.Properties, error) {
		resp, err := ec.complete(llm.Request{Prompt: llm.ExtractPrompt(fields, text)})
		if err != nil {
			return nil, err
		}
		var extracted docmodel.Properties
		if err := json.Unmarshal([]byte(resp.Text), &extracted); err != nil {
			return nil, fmt.Errorf("llmExtract: model returned non-JSON for %s: %w", d.ID, err)
		}
		return extracted, nil
	}
	return ds.with(stageSpec{
		name:       name,
		kind:       mapKind,
		callsModel: true,
		mutates:    true, // merges extracted fields into d.Properties
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			var scope string
			var elsewhere []bool
			if scoped {
				scope, elsewhere = scopeText(d.Sections(), terms)
			}
			if scope != "" {
				extracted, err := ask(ec, d, scope)
				if err != nil {
					return nil, err
				}
				missed := false
				for f, field := range fields {
					v, _ := extracted.Get(field.Name)
					missed = missed || (elsewhere[f] && v == nil)
				}
				if !missed {
					atomic.AddInt64(&ec.nt.ProxyKept, 1)
					return setExtracted(d, extracted), nil
				}
			}
			extracted, err := ask(ec, d, d.TextContent())
			if err != nil {
				return nil, err
			}
			if scope != "" {
				atomic.AddInt64(&ec.nt.Escalations, 1)
			}
			return setExtracted(d, extracted), nil
		},
	})
}

// setExtracted merges a model's extract reply into the document's
// properties; a null leaves the property as it was.
func setExtracted(d *docmodel.Document, extracted docmodel.Properties) []*docmodel.Document {
	found := make(docmodel.Properties, 0, len(extracted))
	for k, v := range extracted.All() {
		if v != nil {
			found = found.Set(k, v) // in key order: each Set appends
		}
	}
	d.Properties = d.Properties.Merge(found)
	return []*docmodel.Document{d}
}

// LLMFilter keeps the documents for which the LLM answers every one of the
// natural-language predicates affirmatively (Table 2b). Several questions
// are one stage, not a chain: each document is sent to the model at most
// once, asking only what the response cache lacks, and each question reads
// only the sections it is about (llmFilters).
func (ds *DocSet) LLMFilter(questions ...string) *DocSet {
	return ds.llmFilters(questions)
}

// llmFilters is the one filter stage: the conjunction of the questions over
// each document. Per document it
//
//  1. hands the questions to the model client as one FilterGroup, each
//     question scoped to the document's preamble and the sections that
//     hold one of the question's terms. Each answer lives in the response
//     cache under the question's own solo llm.FilterPrompt, so a resident
//     "no" ends the document with nothing sent, resident answers are not
//     asked again, and what is missing goes upstream as one request: the
//     solo prompt for one question, one packed prompt — the union of their
//     scopes, once — for several;
//  2. keeps the document when every answer is yes.
//
// The result is what the chain of single-question filters gives, in any
// question order, and what the same questions asked of the whole document
// give. The stage's NodeTrace counts one LLM call per document asked and
// each question's verdicts in Questions.
func (ds *DocSet) llmFilters(questions []string) *DocSet {
	terms := filterTerms(questions)
	return ds.with(stageSpec{
		name:       "llmFilter[" + strings.Join(questions, " AND ") + "]",
		kind:       mapKind,
		callsModel: true,
		questions:  questions,
		mapFn: func(ec *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			resps, err := ec.completeGroup(filterGroup(questions, terms, d))
			if err != nil {
				return nil, err
			}
			keep := true
			for i, r := range resps {
				if r == (llm.Response{}) {
					// Not asked: a resident "no" settled the document.
					continue
				}
				yes := llm.FilterYes(r.Text)
				ec.nt.noteVerdict(i, yes)
				keep = keep && yes
			}
			if !keep {
				return nil, nil
			}
			return []*docmodel.Document{d}, nil
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
	})
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
			d.Embedding = ec.Embedder.Embed(d.EmbeddingText())
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
