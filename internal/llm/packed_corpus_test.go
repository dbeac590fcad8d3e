package llm_test

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"aryn/internal/core"
	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
	"aryn/internal/qa"
)

// mixQuestions are the predicates of the six-plan optimizer mix
// (internal/luna's optimizerMixPlans, bench's optimizerMix).
var mixQuestions = []string{
	"Does the report mention a fire?",
	"Does the report mention fuel?",
	"Does the report mention a pilot?",
	"Does the report mention ice?",
	"Does the report mention birds?",
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

// TestSimPackedRepliesMatchSolo pins the packed prompt's modelling
// assumption on the benchmark corpus: for every report and every subset of
// two or three of the filter questions the 30 benchmark questions and the
// optimizer mix ask, each line of the Sim's packed reply is its reply to
// that question's solo prompt — the packed prompt reading the union of the
// sections its questions are about, each solo prompt its own question's
// (docset's llmFilter stage) — including where the solo reply is a draw of the
// per-question rng, of which the corpus must hold at least one.
func TestSimPackedRepliesMatchSolo(t *testing.T) {
	ctx := context.Background()
	corpus, err := ntsb.GenerateCorpus(100, 42)
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
	hits := sys.Store.SearchDocs(index.Query{})
	if len(hits) != 103 {
		t.Fatalf("corpus holds %d reports, want 103", len(hits))
	}
	if raceDetector {
		// The sweep is one goroutine computing; under the detector a
		// tenth of the reports keeps it a smoke test.
		for i := range hits {
			if i%10 == 0 {
				hits[i/10] = hits[i]
			}
		}
		hits = hits[:(len(hits)+9)/10]
	}

	questions := slices.Clone(mixQuestions)
	for _, q := range qa.Questions(corpus) {
		pv, err := sys.QueryService().PlanOnly(ctx, q.Text)
		if err != nil {
			t.Fatalf("q%02d: %v", q.ID, err)
		}
		var plan struct {
			Nodes []struct{ Op, Question string }
		}
		if err := json.Unmarshal([]byte(pv.Rewritten.JSON()), &plan); err != nil {
			t.Fatal(err)
		}
		for _, n := range plan.Nodes {
			if (n.Op == "llmFilter" || n.Op == "fraction") && n.Question != "" && !slices.Contains(questions, n.Question) {
				questions = append(questions, n.Question)
			}
		}
	}
	if len(questions) <= len(mixQuestions) {
		t.Fatalf("the benchmark questions plan no llmFilter beyond the mix's: %q", questions)
	}
	var subsets [][]string
	for a := range questions {
		for b := a + 1; b < len(questions); b++ {
			subsets = append(subsets, []string{questions[a], questions[b]})
			for c := b + 1; c < len(questions); c++ {
				subsets = append(subsets, []string{questions[a], questions[b], questions[c]})
			}
		}
	}

	sim := sys.Sim
	// The same model under other seeds: a reply that differs between seeds
	// was decided by the rng, not by the text.
	others := []*llm.Sim{llm.NewSim(1), llm.NewSim(2), llm.NewSim(3), llm.NewSim(4)}
	rngDecided := 0
	for _, hit := range hits {
		solo := map[string]string{}
		drawn := map[string]bool{}
		for _, q := range questions {
			req := filterGroupOf(t, []string{q}, hit.Doc).Reqs[0]
			resp, err := sim.Complete(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			solo[q] = resp.Text
			for _, other := range others {
				if r, _ := other.Complete(ctx, req); r.Text != resp.Text {
					drawn[q] = true
				}
			}
		}
		for _, subset := range subsets {
			g := filterGroupOf(t, subset, hit.Doc)
			members := make([]int, len(subset))
			for i := range members {
				members[i] = i
			}
			resp, err := sim.Complete(ctx, g.Pack(members))
			if err != nil {
				t.Fatal(err)
			}
			lines, err := g.Split(resp.Text, len(subset))
			if err != nil {
				t.Fatalf("%s %q: %v", hit.Doc.ID, subset, err)
			}
			for i, q := range subset {
				if lines[i] != solo[q] {
					t.Fatalf("%s: %q answered %q packed in %q, %q solo", hit.Doc.ID, q, lines[i], subset, solo[q])
				}
				if drawn[q] {
					rngDecided++
				}
			}
		}
	}
	if rngDecided == 0 {
		t.Error("no (report, question) of the corpus is decided by the rng: the per-question rng derivation is not exercised")
	}
	t.Logf("%d questions, %d subsets, %d reports; %d packed lines matched an rng-decided solo reply", len(questions), len(subsets), len(hits), rngDecided)
}
