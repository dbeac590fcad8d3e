package qa

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"aryn/internal/core"
	"aryn/internal/llm"
	"aryn/internal/luna"
	"aryn/internal/ntsb"
)

func TestGradeCount(t *testing.T) {
	q := Question{Kind: KindCount}
	if Grade(q, luna.NumberAnswer(5), luna.NumberAnswer(5)) != Correct {
		t.Error("exact count should be correct")
	}
	if Grade(q, luna.NumberAnswer(6), luna.NumberAnswer(5)) != Incorrect {
		t.Error("off-by-one count should be incorrect")
	}
	if Grade(q, luna.TextAnswer("five"), luna.NumberAnswer(5)) != Incorrect {
		t.Error("non-numeric answer should be incorrect")
	}
	if Grade(q, luna.Answer{Refused: true}, luna.NumberAnswer(5)) != Refusal {
		t.Error("refusal should be recorded")
	}
}

func TestGradeNumberTolerance(t *testing.T) {
	q := Question{Kind: KindNumber, Tolerance: 0.02}
	if Grade(q, luna.NumberAnswer(101.5), luna.NumberAnswer(100)) != Correct {
		t.Error("within 2% should pass")
	}
	if Grade(q, luna.NumberAnswer(105), luna.NumberAnswer(100)) != Incorrect {
		t.Error("5% off should fail")
	}
	exact := Question{Kind: KindNumber}
	if Grade(exact, luna.NumberAnswer(100.001), luna.NumberAnswer(100)) != Incorrect {
		t.Error("zero tolerance must be exact")
	}
}

func TestGradeBreakdown(t *testing.T) {
	q := Question{Kind: KindBreakdown}
	gt := luna.TableAnswer(map[string]float64{"KY": 3, "CA": 2})
	if Grade(q, luna.TableAnswer(map[string]float64{"ky": 3, "CA": 2}), gt) != Correct {
		t.Error("case-insensitive key match should pass")
	}
	if Grade(q, luna.TableAnswer(map[string]float64{"KY": 4, "CA": 2}), gt) != Incorrect {
		t.Error("wrong value should fail")
	}
	if Grade(q, luna.TableAnswer(map[string]float64{"KY": 3}), gt) != Incorrect {
		t.Error("missing key should fail")
	}
}

func TestGradeListAndTop(t *testing.T) {
	q := Question{Kind: KindList}
	gt := luna.ListAnswer("A1", "B2")
	if Grade(q, luna.ListAnswer("b2", "a1"), gt) != Correct {
		t.Error("set equality should be order- and case-insensitive")
	}
	if Grade(q, luna.ListAnswer("A1"), gt) != Incorrect {
		t.Error("missing element should fail")
	}
	if Grade(q, luna.TextAnswer("A1; B2"), gt) != Correct {
		t.Error("text enumeration of exactly the right items should pass")
	}
}

func TestGradeText(t *testing.T) {
	q := Question{Kind: KindText, Keywords: []string{"fuel", "engine"}}
	if Grade(q, luna.TextAnswer("the Engine stopped from FUEL exhaustion"), luna.Answer{}) != Correct {
		t.Error("keyword grading should be case-insensitive")
	}
	if Grade(q, luna.TextAnswer("the wing failed"), luna.Answer{}) != Incorrect {
		t.Error("missing keyword should fail")
	}
	if Grade(q, luna.TextAnswer(""), luna.Answer{}) != Incorrect {
		t.Error("empty text should fail")
	}
}

func TestParseRAGAnswerShapes(t *testing.T) {
	if a := ParseRAGAnswer(Question{Kind: KindCount}, "42", "", false); a.Number != 42 {
		t.Errorf("count parse = %v", a)
	}
	if a := ParseRAGAnswer(Question{Kind: KindCount}, "about 17 incidents", "", false); a.Number != 17 {
		t.Errorf("wrapped count parse = %v", a)
	}
	if a := ParseRAGAnswer(Question{Kind: KindBreakdown}, "KY=3, CA=2", "", false); a.Table["KY"] != 3 {
		t.Errorf("breakdown parse = %v", a)
	}
	if a := ParseRAGAnswer(Question{Kind: KindList}, "A1, B2", "", false); len(a.List) != 2 {
		t.Errorf("list parse = %v", a)
	}
	if a := ParseRAGAnswer(Question{Kind: KindList}, "none", "", false); len(a.List) != 0 {
		t.Errorf("none should parse to empty list: %v", a)
	}
	if a := ParseRAGAnswer(Question{Kind: KindCount}, "", "refused text", true); !a.Refused {
		t.Error("refusal flag lost")
	}
}

func TestQuestionsCoverAllKinds(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(30, 42)
	if err != nil {
		t.Fatal(err)
	}
	qs := Questions(corpus)
	if len(qs) != 30 {
		t.Fatalf("benchmark has %d questions, want 30", len(qs))
	}
	kinds := map[Kind]int{}
	for _, q := range qs {
		kinds[q.Kind]++
		gt := q.GT(corpus)
		if gt.Kind == "" {
			t.Errorf("Q%d ground truth has no kind", q.ID)
		}
	}
	for _, k := range []Kind{KindCount, KindBreakdown, KindFraction, KindTop, KindList, KindNumber, KindText} {
		if kinds[k] == 0 {
			t.Errorf("no questions of kind %s", k)
		}
	}
}

func TestGroundTruthAccidentSemantics(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	qs := Questions(corpus)
	// Q24 (total) must count accidents, not reports.
	var total, totalReports luna.Answer
	for _, q := range qs {
		if q.ID == 24 {
			total = q.GT(corpus)
			totalReports = q.ReportGT(corpus)
		}
	}
	if int(total.Number) != 100 {
		t.Errorf("accident-level total = %v, want 100", total.Number)
	}
	if int(totalReports.Number) <= 100 {
		t.Errorf("report-level total = %v, should exceed 100 (multi-aircraft pairs)", totalReports.Number)
	}
}

// TestTable4Reproduction is the headline §7.2 regression: on the standard
// corpus and seeds, Luna and RAG must land in the paper's Table 4 regime.
// The Luna column is pinned to the paper's cells exactly (20/10/0 with 6
// counting + 3 filter + 1 interpretation errors): at the canonical seeds it
// repeats on every run, so a change that re-draws a filter verdict shows
// here. The RAG column varies from run to run (retrieval ties), so it keeps
// the bands around the paper's 2/20/8.
func TestTable4Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 8})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}
	t4, err := RunTable4(context.Background(), sys, corpus)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t4.Format())

	// Luna column: exactly the paper's 20/10/0, all three error categories.
	if t4.Luna.Correct != 20 || t4.Luna.Incorrect != 10 {
		t.Errorf("Luna = %d correct, %d incorrect; want 20 and 10", t4.Luna.Correct, t4.Luna.Incorrect)
	}
	if t4.Luna.Refusal != 0 {
		t.Errorf("Luna must never refuse (aggregation is engine-side), got %d", t4.Luna.Refusal)
	}
	if n := t4.Luna.ByCategory[ErrCounting]; n != 6 {
		t.Errorf("counting errors = %d, want 6", n)
	}
	if n := t4.Luna.ByCategory[ErrFilter]; n != 3 {
		t.Errorf("filter errors = %d, want 3", n)
	}
	if n := t4.Luna.ByCategory[ErrInterpretation]; n != 1 {
		t.Errorf("interpretation errors = %d, want 1", n)
	}
	if n := t4.Luna.ByCategory[ErrOther]; n != 0 {
		t.Errorf("unclassified errors = %d, want 0", n)
	}

	// RAG column: near-total failure, substantial refusals.
	if t4.RAG.Correct > 4 {
		t.Errorf("RAG correct = %d, want ~2", t4.RAG.Correct)
	}
	if t4.RAG.Refusal < 5 || t4.RAG.Refusal > 11 {
		t.Errorf("RAG refusals = %d, want ~8", t4.RAG.Refusal)
	}
	if t4.Luna.Correct <= 3*t4.RAG.Correct {
		t.Errorf("Luna (%d) should dominate RAG (%d) by a wide margin", t4.Luna.Correct, t4.RAG.Correct)
	}

	// The Hawaii zero-count must be RAG's success case, as in the paper.
	for _, r := range t4.RAGRecords {
		if r.Question.ID == 3 && r.Verdict != Correct {
			t.Errorf("RAG should answer the Hawaii zero-count correctly, got %s", r.Verdict)
		}
	}
}

// TestColdPassTokenBudget pins what the 30 benchmark questions cost, asked
// once each of a cold system over the benchmark's corpus (seed 42, 103
// reports): the tokens bench/ reports as cold_tokens_per_query × 30, under
// serve-warm's wiring (optimize off, default cache) and under
// analytics-cold's (optimize on, a 256-entry cache). The count repeats
// exactly, so a rule, prompt or cache change that moves it fails here
// instead of waiting for the benchmark. Under serve-warm's wiring so does
// the number of upstream dispatches, each stage sending its misses eight
// at a time. Under analytics-cold's it is not pinned: a scoped llmExtract
// asks a document again once its first answer is back, and whether that
// second request finds its stage's last group still open is timing.
func TestColdPassTokenBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	corpus, err := ntsb.GenerateCorpus(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		cfg        core.Config
		tokens     int
		dispatches int64 // 0: not pinned
	}{
		{"optimize off", core.Config{Seed: 7, Parallelism: 8}, 195138, 98},
		{"optimize on, 256-entry cache", core.Config{Seed: 7, Parallelism: 8, Optimize: true, LLMCacheCapacity: 256}, 174473, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(func(procs int) {
				sys := core.New(tc.cfg)
				if _, err := sys.Ingest(context.Background(), blobs); err != nil {
					t.Fatal(err)
				}
				before, stackBefore := sys.LLM.Usage(), sys.LLM.StackStats()
				for _, q := range Questions(corpus) {
					if _, err := sys.QueryService().Ask(context.Background(), q.Text); err != nil {
						t.Fatalf("q%02d: %v", q.ID, err)
					}
				}
				if got := sys.LLM.Usage().Sub(before).Total(); got != tc.tokens {
					t.Errorf("GOMAXPROCS %d: the cold pass cost %d tokens, want %d (%.2f per question, want %.2f)",
						procs, got, tc.tokens, float64(got)/30, float64(tc.tokens)/30)
				}
				if got := sys.LLM.StackStats().Sub(stackBefore).Batch.Batches; tc.dispatches > 0 && got != tc.dispatches {
					t.Errorf("GOMAXPROCS %d: the cold pass made %d upstream dispatches, want %d", procs, got, tc.dispatches)
				}
			})
		})
	}
}

// atProcs runs f at GOMAXPROCS 1 and 4, and restores the setting.
func atProcs(f func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestIngestTokenBudget pins what the ingest pass (DocParse, then the ETL
// llmExtract of every report) costs in prompt and completion tokens and in
// upstream dispatches, and how many chunk elements it stores, on the
// benchmark's corpus (seed 42) and its held-out one (seed 43). The counts
// repeat exactly, at GOMAXPROCS 1 as at 4, so a change to what an ingest
// prompt carries, or to how the stage batches its calls, fails here: the
// benchmark times ingest but does not count its tokens. The ETL stage
// sends its 103 reports eight to a dispatch, ⌈103/8⌉ = 13.
func TestIngestTokenBudget(t *testing.T) {
	atProcs(func(procs int) {
		for _, tc := range []struct {
			seed               int64
			prompt, completion int
			calls, elements    int
		}{
			{42, 66925, 11090, 13, 2516},
			{43, 66838, 10981, 13, 2525},
		} {
			corpus, err := ntsb.GenerateCorpus(100, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			blobs, err := corpus.Blobs()
			if err != nil {
				t.Fatal(err)
			}
			stats, err := core.New(core.Config{Seed: 7, Parallelism: 8}).Ingest(context.Background(), blobs)
			if err != nil {
				t.Fatal(err)
			}
			if u := stats.Usage; u.PromptTokens != tc.prompt || u.CompletionTokens != tc.completion || u.Calls != tc.calls {
				t.Errorf("GOMAXPROCS %d, corpus %d: ingest cost %d prompt and %d completion tokens in %d dispatches, want %d, %d and %d",
					procs, tc.seed, u.PromptTokens, u.CompletionTokens, u.Calls, tc.prompt, tc.completion, tc.calls)
			}
			if n := stats.LLM.Batch.Batches; n != int64(tc.calls) {
				t.Errorf("GOMAXPROCS %d, corpus %d: the batcher counted %d dispatches, want %d", procs, tc.seed, n, tc.calls)
			}
			if stats.Elements != tc.elements {
				t.Errorf("GOMAXPROCS %d, corpus %d: ingest counted %d chunk elements, want %d", procs, tc.seed, stats.Elements, tc.elements)
			}
		}
	})
}

// countingLLM counts what an execution sends through its client: one per
// request, one per request group.
type countingLLM struct {
	llm.Client
	calls atomic.Int64
}

func (c *countingLLM) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	c.calls.Add(1)
	return c.Client.Complete(ctx, req)
}

func (c *countingLLM) CompleteGroup(ctx context.Context, g llm.Group) ([]llm.Response, error) {
	c.calls.Add(1)
	return llm.CompleteGroup(ctx, c.Client, g)
}

// TestRecordedPlansReExecute closes the §6.2 inspect→edit→re-run loop
// through the harness: every plan the benchmark recorded round-trips
// through its DAG JSON and, resubmitted via RunPlan, reproduces the
// answer it was recorded with — and its EXPLAIN ANALYZE nodes account for
// every call the re-execution sent through the model client.
func TestRecordedPlansReExecute(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.Config{Seed: 7, Parallelism: 4})
	if _, err := sys.Ingest(context.Background(), blobs); err != nil {
		t.Fatal(err)
	}
	records, _, err := RunLuna(context.Background(), sys, corpus)
	if err != nil {
		t.Fatal(err)
	}
	// The executor's client only: planning calls go through sys.LLM.
	counter := &countingLLM{Client: sys.EC.LLM}
	sys.EC.LLM = counter
	replayed := 0
	for _, rec := range records {
		if rec.Err != nil || rec.Plan == nil {
			continue
		}
		parsed, perr := luna.ParsePlan(rec.Plan.JSON())
		if perr != nil {
			t.Fatalf("q%d: recorded plan does not round-trip: %v", rec.Question.ID, perr)
		}
		sentBefore := counter.calls.Load()
		res, rerr := sys.Query.RunPlan(context.Background(), rec.Question.Text, parsed)
		if rerr != nil {
			t.Fatalf("q%d: recorded plan does not re-execute: %v", rec.Question.ID, rerr)
		}
		var traced int64
		for _, ne := range res.Exec.Nodes {
			traced += ne.Runtime.LLMCalls
		}
		if sent := counter.calls.Load() - sentBefore; sent != traced {
			t.Errorf("q%d: re-execution sent %d model calls, its plan nodes account for %d",
				rec.Question.ID, sent, traced)
		}
		if res.Answer.String() != rec.Answer.String() {
			t.Errorf("q%d: re-executed answer %q != recorded %q",
				rec.Question.ID, res.Answer.String(), rec.Answer.String())
		}
		replayed++
	}
	if replayed < 20 {
		t.Errorf("only %d plans replayed", replayed)
	}
}
