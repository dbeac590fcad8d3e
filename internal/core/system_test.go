package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

// buildSystem ingests a small NTSB corpus once per test binary.
var cachedSystem *System
var cachedCorpus *ntsb.Corpus

func testSystem(t *testing.T) (*System, *ntsb.Corpus) {
	t.Helper()
	if cachedSystem != nil {
		return cachedSystem, cachedCorpus
	}
	corpus, err := ntsb.GenerateCorpus(30, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{Seed: 7, Parallelism: 4})
	stats, err := sys.Ingest(context.Background(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Documents != len(blobs) || stats.Chunks == 0 {
		t.Fatalf("ingest stats: %+v", stats)
	}
	if stats.Usage.Calls == 0 {
		t.Fatal("ingest should consume LLM calls (llmExtract)")
	}
	cachedSystem, cachedCorpus = sys, corpus
	return sys, corpus
}

func TestIngestExtractsSchema(t *testing.T) {
	sys, corpus := testSystem(t)
	for _, name := range []string{"us_state", "aircraftDamage"} {
		if !slices.ContainsFunc(sys.QueryService().Planner.Schema.Fields, func(f luna.SchemaField) bool { return f.Name == name }) {
			t.Fatalf("schema missing extracted field %s: %+v", name, sys.QueryService().Planner.Schema)
		}
	}
	// Spot-check extraction quality on one document.
	inc := corpus.Incidents[0]
	i := slices.IndexFunc(sys.Store.Documents(), func(d *docmodel.Document) bool { return d.ID == inc.ReportID })
	if i < 0 {
		t.Fatal("ingested doc missing")
	}
	doc := sys.Store.Documents()[i]
	if got := doc.Property("us_state"); got != inc.StateAbbrev() {
		t.Errorf("us_state = %q, want %q", got, inc.StateAbbrev())
	}
	if got := doc.Property("aircraft"); got != inc.Aircraft {
		t.Errorf("aircraft = %q, want %q", got, inc.Aircraft)
	}
	if got := doc.Property("aircraftDamage"); got != inc.Damage {
		t.Errorf("damage = %q, want %q", got, inc.Damage)
	}
	if got := doc.Property("month"); got != inc.Month() {
		t.Errorf("month = %q, want %q", got, inc.Month())
	}
	if got, _ := doc.Properties.Int("engines"); got != inc.Engines {
		t.Errorf("engines = %d, want %d", got, inc.Engines)
	}
}

func TestAskCountByState(t *testing.T) {
	sys, corpus := testSystem(t)
	// Pick a state present in the corpus ground truth.
	state := corpus.Incidents[0].State
	want := 0
	for _, in := range corpus.Incidents {
		if in.State == state {
			want++
		}
	}
	res, err := sys.Ask(context.Background(), "How many incidents were there in "+state+"?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != luna.AnswerNumber {
		t.Fatalf("answer kind = %v", res.Answer.Kind)
	}
	if int(res.Answer.Number) != want {
		t.Errorf("count for %s = %v, want %d (report-level)", state, res.Answer.Number, want)
	}
	if res.Plan == nil || len(res.Plan.Nodes) < 2 {
		t.Error("plan missing")
	}
	if res.Trace == nil || len(res.Trace.Nodes) == 0 {
		t.Error("trace missing")
	}
}

func TestAskBreakdownAndTopState(t *testing.T) {
	sys, _ := testSystem(t)
	res, err := sys.Ask(context.Background(), "How many incidents were there by state?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != luna.AnswerTable || len(res.Answer.Table) == 0 {
		t.Fatalf("breakdown answer = %+v", res.Answer)
	}
	res2, err := sys.Ask(context.Background(), "Which state had the most incidents?")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answer.Kind != luna.AnswerList || len(res2.Answer.List) != 1 {
		t.Fatalf("top-state answer = %+v", res2.Answer)
	}
}

func TestAskWithLLMFilter(t *testing.T) {
	sys, corpus := testSystem(t)
	res, err := sys.Ask(context.Background(), "How many incidents involved birds?")
	if err != nil {
		t.Fatal(err)
	}
	gtBirds := 0
	for _, in := range corpus.Incidents {
		if in.BirdStrike {
			gtBirds++
		}
	}
	got := int(res.Answer.Number)
	if got < gtBirds {
		t.Errorf("bird count %d below ground truth %d (filter should be recall-biased)", got, gtBirds)
	}
	if got > gtBirds+5 {
		t.Errorf("bird count %d wildly above ground truth %d", got, gtBirds)
	}
	// The plan must include an llmFilter (birds are not in the schema).
	if !strings.Contains(res.Rewritten.String(), "llmFilter") {
		t.Errorf("plan should use llmFilter:\n%s", res.Rewritten.String())
	}
}

func TestAskQueryTimeExtraction(t *testing.T) {
	sys, _ := testSystem(t)
	res, err := sys.Ask(context.Background(), "What was the most commonly damaged part of the aircraft?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != luna.AnswerList || len(res.Answer.List) != 1 {
		t.Fatalf("mode answer = %+v", res.Answer)
	}
	if !strings.Contains(res.Rewritten.String(), "llmExtract") {
		t.Errorf("plan should extract at query time:\n%s", res.Rewritten.String())
	}
}

func TestConversationFollowUp(t *testing.T) {
	sys, _ := testSystem(t)
	ctx := context.Background()
	first, err := sys.Ask(ctx, "How many incidents involved substantial damage?")
	if err != nil {
		t.Fatal(err)
	}
	follow, err := sys.Ask(ctx, "what about destroyed aircraft?")
	if err != nil {
		t.Fatal(err)
	}
	if follow.Answer.Kind != luna.AnswerNumber {
		t.Fatalf("follow-up kind = %v", follow.Answer.Kind)
	}
	if follow.Answer.Number == first.Answer.Number {
		t.Error("follow-up should change the filter (destroyed != substantial counts)")
	}
	// The merged plan must keep the count terminal and swap the damage filter.
	planStr := follow.Rewritten.String()
	if !strings.Contains(planStr, "Destroyed") || !strings.Contains(planStr, "count()") {
		t.Errorf("merged follow-up plan wrong:\n%s", planStr)
	}
}

func TestAskRAG(t *testing.T) {
	sys, _ := testSystem(t)
	resp, err := sys.AskRAG(context.Background(), "How many incidents involved substantial damage?")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Retrieved == 0 {
		t.Fatal("RAG retrieved nothing")
	}
	if resp.Answer == "" {
		t.Errorf("RAG produced no Answer line: %s", resp.Text)
	}
}

func TestRAGRefusalOnCauseQuestion(t *testing.T) {
	sys, _ := testSystem(t)
	resp, err := sys.AskRAG(context.Background(), "How many incidents were due to engine problems?")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Refused {
		t.Errorf("fault-adjacent question over poisoned corpus should refuse (poisoned=%d/%d): %s",
			resp.PoisonedChunks, resp.Retrieved, resp.Text)
	}
}

func TestAskBeforeIngestFails(t *testing.T) {
	sys := New(Config{Seed: 1})
	if _, err := sys.Ask(context.Background(), "anything"); err == nil {
		t.Error("Ask before ingest should error")
	}
}

func TestSemanticSearchEndToEnd(t *testing.T) {
	sys, _ := testSystem(t)
	res, err := sys.Query.Ask(context.Background(), "Find reports about bird strikes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind != luna.AnswerList || len(res.Answer.List) == 0 {
		t.Fatalf("semantic search answer = %+v", res.Answer)
	}
	if !strings.Contains(res.Rewritten.String(), "queryVectorDatabase") {
		t.Errorf("plan should use vector search:\n%s", res.Rewritten.String())
	}
}

func TestLLMMiddlewareWiredThroughQueries(t *testing.T) {
	sys, _ := testSystem(t)
	ctx := context.Background()
	question := "How many unique incidents were there in each state?"

	first, err := sys.Query.Ask(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	if first.LLM == nil {
		t.Fatal("Result.LLM not populated: middleware stats not wired through Luna")
	}
	usageBefore := sys.LLM.Usage()

	// The repeat is planned from the planner's memo, so it never reaches
	// the response cache: no lookup, no dispatch, no upstream spend.
	second, err := sys.Query.Ask(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	if second.LLM == nil {
		t.Fatal("Result.LLM not populated on the repeat")
	}
	if second.LLM.Batch.Batches != 0 || second.LLM.Cache.Misses != 0 {
		t.Errorf("repeated query made %d dispatches and %d cache misses, want 0 (plan kept by the planner): %s",
			second.LLM.Batch.Batches, second.LLM.Cache.Misses, second.LLM)
	}
	if second.Answer.Kind != first.Answer.Kind {
		t.Errorf("repeated answer kind diverged: %v vs %v", second.Answer.Kind, first.Answer.Kind)
	}
	if d := sys.LLM.Usage().Sub(usageBefore); d.Calls != 0 || d.Total() != 0 {
		t.Errorf("repeated query consumed %d upstream calls and %d tokens, want 0", d.Calls, d.Total())
	}
	if !strings.Contains(first.LLM.String(), "hits") {
		t.Errorf("Result.LLM renders no cache line: %q", first.LLM)
	}

	// A purge forgets the kept plans too: the next ask plans again.
	sys.PurgeLLMCache()
	third, err := sys.Query.Ask(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	if third.LLM.Batch.Batches == 0 {
		t.Errorf("the ask after a purge made no dispatch: %s", third.LLM)
	}
}

// TestLoadStateFiles: a missing LLM-cache file is a cold start, and one
// that does not load is an error naming it that loads nothing and leaves
// the file as it was. (The round trip: TestFilterAnswersShareOneKeySpace.)
func TestLoadStateFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "llm.cache")
	sys := New(Config{Seed: 7})
	if err := sys.LoadLLMCache(path); err != nil {
		t.Errorf("missing file: %v, want a cold start", err)
	}
	corrupt := []byte("not a state file")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadLLMCache(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("corrupt file loaded with %v, want an error naming %s", err, path)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, corrupt) {
		t.Error("a failed load changed the file")
	}
	if n := sys.LLMStats().Cache.Entries; n != 0 {
		t.Errorf("a failed load left %d cache entries", n)
	}
}

func TestIngestReportsMiddlewareStats(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(6, 99)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{Seed: 11, Parallelism: 4})
	stats, err := sys.Ingest(context.Background(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.LLM.Cache.Misses; got == 0 {
		t.Errorf("ingest should record cache misses for fresh extracts, stats: %+v", stats.LLM)
	}
	if sys.LLMStats().Cache.Misses == 0 {
		t.Error("system-level middleware stats empty after ingest")
	}
}

// TestDocumentOrderIndependentOfScheduling: docset.Write is a parallel map
// stage, so documents reach the store in whatever order the extract
// workers finish. The store orders them by ID, so the same blobs give one
// Documents() order and one list answer on every ingest, at any
// Parallelism — q27 used to come back in either order between two boots.
func TestDocumentOrderIndependentOfScheduling(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(30, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	const q27 = "List the registration numbers of aircraft that were destroyed."
	var wantOrder, wantAnswer string
	for _, parallelism := range []int{1, 8} {
		for run := 0; run < 5; run++ {
			sys := New(Config{Seed: 7, Parallelism: parallelism})
			if _, err := sys.Ingest(context.Background(), blobs); err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, d := range sys.Store.Documents() {
				ids = append(ids, d.ID)
			}
			res, err := sys.Ask(context.Background(), q27)
			if err != nil {
				t.Fatal(err)
			}
			order, answer := strings.Join(ids, " "), res.Answer.String()
			if wantOrder == "" {
				if len(res.Answer.List) < 2 {
					t.Fatalf("q27 lists %d registrations; order needs at least two", len(res.Answer.List))
				}
				wantOrder, wantAnswer = order, answer
				continue
			}
			if order != wantOrder {
				t.Fatalf("parallelism %d run %d: Documents() order differs:\n got %s\nwant %s", parallelism, run, order, wantOrder)
			}
			if answer != wantAnswer {
				t.Fatalf("parallelism %d run %d: q27 answered %q, first ingest answered %q", parallelism, run, answer, wantAnswer)
			}
		}
	}
}
