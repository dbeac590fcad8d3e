package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
	"aryn/internal/qa"
)

// mixQuestions are the predicates of the six-plan optimizer mix (bench's
// optimizerMix).
var mixQuestions = []string{
	"Does the report mention a fire?",
	"Does the report mention fuel?",
	"Does the report mention a pilot?",
	"Does the report mention ice?",
	"Does the report mention birds?",
}

// filterCorpus ingests the 100 reports of the corpus of seed into a system
// of its own and returns it with every distinct filter predicate the 30
// benchmark questions plan and the optimizer mix asks.
func filterCorpus(t *testing.T, seed int64) (*core.System, []string) {
	t.Helper()
	ctx := context.Background()
	corpus, err := ntsb.GenerateCorpus(100, seed)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(ctx, blobs); err != nil {
		t.Fatal(err)
	}
	questions := slices.Clone(mixQuestions)
	for _, q := range qa.Questions(corpus) {
		pv, err := sys.QueryService().PlanOnly(ctx, q.Text)
		if err != nil {
			t.Fatalf("q%02d: %v", q.ID, err)
		}
		var plan struct {
			Nodes []struct {
				Op, Question string
				Questions    []string
			}
		}
		if err := json.Unmarshal([]byte(pv.Rewritten.JSON()), &plan); err != nil {
			t.Fatal(err)
		}
		for _, n := range plan.Nodes {
			if n.Op != "llmFilter" && n.Op != "fraction" {
				continue
			}
			for _, pred := range append(n.Questions, n.Question) {
				if pred != "" && !slices.Contains(questions, pred) {
					questions = append(questions, pred)
				}
			}
		}
	}
	if len(questions) <= len(mixQuestions) {
		t.Fatalf("the benchmark questions plan no llmFilter beyond the mix's: %q", questions)
	}
	return sys, questions
}

// sameReply asks the Sim a and b and reports whether it answers both alike,
// with the prompt tokens of each.
func sameReply(t *testing.T, sys *core.System, a, b llm.Request) (same bool, aTokens, bTokens int) {
	t.Helper()
	ra, err := sys.Sim.Complete(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sys.Sim.Complete(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	return ra.Text == rb.Text, ra.Usage.PromptTokens, rb.Usage.PromptTokens
}

// TestScopedFilterVerdicts holds llmFilter's scope to its contract: over the
// corpora of seeds 42 to 45, every distinct filter predicate the 30
// benchmark questions plan and the optimizer mix asks gets, from every
// report, the verdict the whole report gets. It also reports what the scope
// reads: a share of the whole report's prompt tokens.
func TestScopedFilterVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("four corpora")
	}
	changed, verdicts := 0, 0
	for _, seed := range []int64{42, 43, 44, 45} {
		t.Run(fmt.Sprintf("corpus %d", seed), func(t *testing.T) {
			sys, questions := filterCorpus(t, seed)
			scopedTokens, wholeTokens := 0, 0
			for _, hit := range sys.Store.SearchDocs(index.Query{}) {
				d := hit.Doc
				for _, q := range questions {
					scoped := filterGroupOf(t, []string{q}, d).Reqs[0]
					whole := llm.Request{Prompt: llm.FilterPrompt(q, d.ID, d.TextContent())}
					same, st, wt := sameReply(t, sys, scoped, whole)
					verdicts++
					if !same {
						changed++
						t.Errorf("%s, %q: the scoped verdict is not the whole report's", d.ID, q)
					}
					scopedTokens += st
					wholeTokens += wt
				}
			}
			if scopedTokens > wholeTokens {
				t.Errorf("the scoped prompts cost %d tokens, the whole ones %d", scopedTokens, wholeTokens)
			}
			t.Logf("%d predicates over %d reports: scoped prompts %d tokens, whole %d (%.1f%%)",
				len(questions), len(sys.Store.SearchDocs(index.Query{})), scopedTokens, wholeTokens,
				100*float64(scopedTokens)/float64(wholeTokens))
		})
	}
	t.Logf("%d changed verdicts of %d", changed, verdicts)
}

// withFurniture is a stored report's text with its page furniture, where
// the report's pages put it: every node's text and every element's, in
// reading order, one line each.
func withFurniture(d *docmodel.Document) string {
	var sb strings.Builder
	line := func(text string) {
		if text != "" {
			sb.WriteString(text + "\n")
		}
	}
	d.Walk(func(n *docmodel.Document) bool {
		line(n.Text)
		for _, e := range n.Elements {
			line(e.Text)
		}
		return true
	})
	return sb.String()
}

// TestPageFurnitureChangesNoAnswer: the model reads no page furniture, and
// no answer moves for it. Over the corpora of seeds 42 to 45, every filter
// predicate TestScopedFilterVerdicts collects gets from every report's
// scoped prompt the verdict the whole report with its furniture gets, and
// the ETL schema and damaged_part get from the furniture-free text the reply
// the text with furniture gets.
func TestPageFurnitureChangesNoAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("four corpora")
	}
	extracts := [][]llm.FieldSpec{core.ExtractionSchema(), {{Name: "damaged_part", Type: "string"}}}
	var verdicts, changedVerdicts, values, changedValues int
	for _, seed := range []int64{42, 43, 44, 45} {
		t.Run(fmt.Sprintf("corpus %d", seed), func(t *testing.T) {
			sys, questions := filterCorpus(t, seed)
			var filterTokens, filterTokensBefore, extractTokens, extractTokensBefore int
			for _, hit := range sys.Store.SearchDocs(index.Query{}) {
				d := hit.Doc
				before := withFurniture(d)
				if before == d.TextContent() {
					t.Fatalf("%s has no page furniture", d.ID)
				}
				for _, q := range questions {
					same, now, was := sameReply(t, sys, filterGroupOf(t, []string{q}, d).Reqs[0],
						llm.Request{Prompt: llm.FilterPrompt(q, d.ID, before)})
					verdicts++
					if !same {
						changedVerdicts++
						t.Errorf("%s, %q: the verdict moved", d.ID, q)
					}
					filterTokens += now
					filterTokensBefore += was
				}
				for _, fields := range extracts {
					same, now, was := sameReply(t, sys, llm.Request{Prompt: llm.ExtractPrompt(fields, d.TextContent())},
						llm.Request{Prompt: llm.ExtractPrompt(fields, before)})
					values += len(fields)
					if !same {
						changedValues += len(fields)
						t.Errorf("%s, %d fields: the extracted values moved", d.ID, len(fields))
					}
					extractTokens += now
					extractTokensBefore += was
				}
			}
			t.Logf("filter prompts %d tokens, %d with furniture read whole; extract prompts %d, %d with furniture",
				filterTokens, filterTokensBefore, extractTokens, extractTokensBefore)
		})
	}
	t.Logf("%d changed verdicts of %d, %d changed values of %d", changedVerdicts, verdicts, changedValues, values)
}

// stageGroup is a model client that keeps the request group the llmFilter
// stage hands it and answers none of it, so the document passes.
type stageGroup struct{ g llm.Group }

func (s *stageGroup) Name() string { return "stage-group" }

func (s *stageGroup) Complete(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, errors.New("stageGroup takes request groups only")
}

func (s *stageGroup) CompleteGroup(_ context.Context, g llm.Group) ([]llm.Response, error) {
	s.g = g
	return make([]llm.Response, len(g.Reqs)), nil
}

// filterGroupOf returns the request group the llmFilter stage over
// questions sends for d.
func filterGroupOf(t testing.TB, questions []string, d *docmodel.Document) llm.Group {
	t.Helper()
	rec := &stageGroup{}
	ec := docset.NewContext(docset.WithLLM(rec))
	if _, err := docset.FromDocuments(ec, []*docmodel.Document{d}).LLMFilter(questions...).TakeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rec.g
}

// BenchmarkWarmFilterQuery is the warm path of a filter question: every
// model call a cache hit, so what is left is the stage's own work per report,
// the scoped request group included.
func BenchmarkWarmFilterQuery(b *testing.B) {
	ctx := context.Background()
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		b.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		b.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 2})
	if _, err := sys.Ingest(ctx, blobs); err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{
		"How many incidents were caused by a loss of engine power?",
		"What fraction of incidents that resulted in substantial damage were due to engine problems?",
	} {
		b.Run(q, func(b *testing.B) {
			if _, err := sys.Ask(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Ask(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
