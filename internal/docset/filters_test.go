package docset

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
)

// upstreamLog is the model beneath the middleware stack: the Sim, with
// every prompt that reached it kept. (The Sim is a field, not embedded: its
// CompleteBatch would let the batcher reach it around the log.)
type upstreamLog struct {
	sim     *llm.Sim
	mu      sync.Mutex
	prompts []string
}

func (u *upstreamLog) Name() string { return u.sim.Name() }

func (u *upstreamLog) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	u.mu.Lock()
	u.prompts = append(u.prompts, req.Prompt)
	u.mu.Unlock()
	return u.sim.Complete(ctx, req)
}

func (u *upstreamLog) sent() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]string(nil), u.prompts...)
}

const (
	qBirdsInvolved = "Does the incident involve birds?"
	qWindshield    = "Does the report mention a windshield?"
)

func filterDocs() []*docmodel.Document {
	return []*docmodel.Document{
		ntsbishDoc("A", "Mesa, Arizona", "A bird strike damaged the windshield."),
		ntsbishDoc("B", "Hilo, Hawaii", "The pilot ran the left tank dry and landed in a field."),
		ntsbishDoc("C", "Reno, Nevada", "Geese were ingested into the engine."),
		ntsbishDoc("D", "Bend, Oregon", "The windshield cracked in cruise flight."),
	}
}

// TestLLMFilterFusedMatchesChain: several questions in one stage keep what
// the chain of single-question stages keeps, plain and cascaded, and spend
// one upstream request per document instead of one per question.
func TestLLMFilterFusedMatchesChain(t *testing.T) {
	ctx := context.Background()
	run := func(build func(*DocSet) *DocSet) ([]string, int) {
		model := &upstreamLog{sim: llm.NewSim(1)}
		ec := NewContext(WithLLM(llm.NewStack(model)))
		out, err := build(FromDocuments(ec, filterDocs())).TakeAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ids(out), len(model.sent())
	}
	chain, chainCalls := run(func(ds *DocSet) *DocSet { return ds.LLMFilter(qBirdsInvolved).LLMFilter(qWindshield) })
	fused, fusedCalls := run(func(ds *DocSet) *DocSet { return ds.LLMFilter(qBirdsInvolved, qWindshield) })
	swapped, _ := run(func(ds *DocSet) *DocSet { return ds.LLMFilter(qWindshield, qBirdsInvolved) })
	cascaded, _ := run(func(ds *DocSet) *DocSet {
		return ds.LLMFilterCascade([]string{qBirdsInvolved, qWindshield}, DefaultCascadeLow, DefaultCascadeHigh)
	})
	if !reflect.DeepEqual(chain, []string{"A"}) {
		t.Fatalf("chain kept %v, want [A]", chain)
	}
	for name, got := range map[string][]string{"fused": fused, "swapped": swapped, "cascaded": cascaded} {
		if !reflect.DeepEqual(got, chain) {
			t.Errorf("%s kept %v, the chain %v", name, got, chain)
		}
	}
	if chainCalls != 6 || fusedCalls != 4 {
		t.Errorf("upstream requests: chain %d, fused %d; want 6 (4 + 2 survivors) and 4 (one per document)", chainCalls, fusedCalls)
	}
}

// TestLLMFilterPackedCallAccounting: a cold two-question document is one
// LLM call in the NodeTrace, one packed request upstream and two cache
// lookups, and leaves each answer under its own solo key.
func TestLLMFilterPackedCallAccounting(t *testing.T) {
	model := &upstreamLog{sim: llm.NewSim(1)}
	stack := llm.NewStack(model)
	ec := NewContext(WithLLM(stack))
	docs := filterDocs()[:1]
	_, trace, err := FromDocuments(ec, docs).LLMFilter(qBirdsInvolved, qWindshield).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nt := trace.Node("llmFilter[" + qBirdsInvolved + " AND " + qWindshield + "]")
	if nt == nil {
		t.Fatalf("no fused stage in trace:\n%s", trace)
	}
	sent := model.sent()
	if nt.LLMCalls != 1 || nt.CacheHits != 0 || len(sent) != 1 {
		t.Errorf("LLMCalls = %d, CacheHits = %d, upstream = %d; want 1, 0, 1", nt.LLMCalls, nt.CacheHits, len(sent))
	}
	if strings.Count(sent[0], docs[0].TextContent()) != 1 || !strings.Contains(sent[0], qBirdsInvolved) || !strings.Contains(sent[0], qWindshield) {
		t.Errorf("upstream request is not one packed prompt holding the document once:\n%s", sent[0])
	}
	if st := stack.StackStats(); st.Cache.Hits+st.Cache.Misses != 2 || st.Flight.Leads != 1 || st.Cache.Entries != 2 {
		t.Errorf("stack = %+v; want 2 lookups, 1 lead, 2 entries", st)
	}
	if nt.PromptTokens != int64(llm.CountTokens(sent[0])) {
		t.Errorf("PromptTokens = %d, the packed prompt has %d", nt.PromptTokens, llm.CountTokens(sent[0]))
	}
	want := []QuestionTrace{{qBirdsInvolved, 1, 1}, {qWindshield, 1, 1}}
	if !reflect.DeepEqual(nt.Questions, want) {
		t.Errorf("Questions = %+v, want %+v", nt.Questions, want)
	}
	for _, q := range []string{qBirdsInvolved, qWindshield} {
		resp, err := stack.Complete(context.Background(), llm.Request{Prompt: llm.FilterPrompt(q, docs[0].TextContent())})
		if err != nil || !resp.FromCache {
			t.Errorf("%q: solo prompt after the packed call: %+v, %v; want a hit", q, resp, err)
		}
	}
}

// TestLLMFilterAsksOnlyWhatIsMissing is the refinement pattern: after a
// query asked the first question of every document, a query asking both
// spends nothing on the documents whose cached answer is "no" and sends
// the survivors the second question alone — the solo prompt, so the answer
// is shared with un-fused plans both ways.
func TestLLMFilterAsksOnlyWhatIsMissing(t *testing.T) {
	ctx := context.Background()
	model := &upstreamLog{sim: llm.NewSim(1)}
	ec := NewContext(WithLLM(llm.NewStack(model)))
	docs := filterDocs()
	if _, err := FromDocuments(ec, docs).LLMFilter(qBirdsInvolved).TakeAll(ctx); err != nil {
		t.Fatal(err)
	}
	first := len(model.sent())
	out, trace, err := FromDocuments(ec, docs).LLMFilter(qBirdsInvolved, qWindshield).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(out); !reflect.DeepEqual(got, []string{"A"}) {
		t.Fatalf("kept %v, want [A]", got)
	}
	var want []string
	for _, d := range docs {
		if d.ID == "A" || d.ID == "C" { // the two bird reports survive the cached answer
			want = append(want, llm.FilterPrompt(qWindshield, d.TextContent()))
		}
	}
	if got := model.sent()[first:]; !reflect.DeepEqual(sorted(got), sorted(want)) {
		t.Errorf("second query sent %d prompts upstream, want the windshield question of A and C alone:\n%s", len(got), strings.Join(got, "\n---\n"))
	}
	nt := trace.Nodes[1]
	if nt.LLMCalls != 4 || nt.CacheHits != 2 {
		t.Errorf("LLMCalls = %d, CacheHits = %d; want one call per document, two of them (B, D) settled by a cached no", nt.LLMCalls, nt.CacheHits)
	}
	// B and D reached no verdict on the second question: it was never asked.
	wantQ := []QuestionTrace{{qBirdsInvolved, 4, 2}, {qWindshield, 2, 1}}
	if !reflect.DeepEqual(nt.Questions, wantQ) {
		t.Errorf("Questions = %+v, want %+v", nt.Questions, wantQ)
	}

	// And the reverse: the answers the fused stage stored serve the chain.
	before := len(model.sent())
	if _, err := FromDocuments(ec, docs).LLMFilter(qBirdsInvolved).LLMFilter(qWindshield).TakeAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(model.sent()) - before; n != 0 {
		t.Errorf("the chain after the fused run sent %d prompts upstream, want 0", n)
	}
}

func sorted(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}
