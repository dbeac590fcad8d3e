package core

import (
	"context"
	"strings"
	"testing"

	"aryn/internal/index"
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
	if sys.Schema.Field("us_state") == nil || sys.Schema.Field("aircraftDamage") == nil {
		t.Fatalf("schema missing extracted fields: %+v", sys.Schema)
	}
	// Spot-check extraction quality on one document.
	inc := corpus.Incidents[0]
	doc, ok := sys.Store.Document(inc.ReportID)
	if !ok {
		t.Fatal("ingested doc missing")
	}
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

func TestStorePersistenceRoundTrip(t *testing.T) {
	sys, _ := testSystem(t)
	path := t.TempDir() + "/store.gob.gz"
	if err := sys.Store.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh system over the loaded store answers identically.
	sys2 := New(Config{Seed: 7})
	sys2.Store = loaded
	sys2.Query = nil
	sys2.Prepare()
	// Rewire the executor onto the loaded store (Prepare uses sys2.Store).
	res, err := sys2.Query.Ask(context.Background(), "How many incidents involved substantial damage?")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := sys.Query.Ask(context.Background(), "How many incidents involved substantial damage?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Number != orig.Answer.Number {
		t.Errorf("loaded store answers differently: %v vs %v", res.Answer.Number, orig.Answer.Number)
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

	second, err := sys.Query.Ask(ctx, question)
	if err != nil {
		t.Fatal(err)
	}
	if second.LLM == nil || second.LLM.Cache.Hits == 0 {
		t.Fatalf("repeated query should hit the response cache, stats: %+v", second.LLM)
	}
	if second.Answer.Kind != first.Answer.Kind {
		t.Errorf("cached answer kind diverged: %v vs %v", second.Answer.Kind, first.Answer.Kind)
	}
	// The repeat's planner call is a guaranteed hit (identical prompt), so
	// it must not be metered as upstream spend.
	usageAfter := sys.LLM.Usage()
	if d := usageAfter.Calls - usageBefore.Calls; d != 0 {
		t.Errorf("repeated query consumed %d upstream calls, want 0 (all cached)", d)
	}
	if second.Trace == nil || second.Trace.LLM == nil {
		t.Fatal("execution trace missing middleware stats")
	}
	if !strings.Contains(second.Trace.String(), "llm middleware:") {
		t.Error("trace rendering missing the middleware line")
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

func TestDisabledMiddlewareStillAnswers(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(5, 123)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{Seed: 3, Parallelism: 2, DisableLLMCache: true, LLMMaxBatch: 1})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Ask(context.Background(), "How many incidents were there?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Kind == "" {
		t.Error("no answer with middleware disabled")
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
