package docset

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
	"aryn/internal/index"
	"aryn/internal/llm"
)

// countingEmbedder is the hash embedder with a count of Embed calls per
// text.
type countingEmbedder struct {
	embed.Embedder
	mu    sync.Mutex
	calls map[string]int
}

func newCountingEmbedder() *countingEmbedder {
	return &countingEmbedder{Embedder: embed.NewHash(0), calls: map[string]int{}}
}

func (c *countingEmbedder) Embed(text string) []float32 {
	c.mu.Lock()
	c.calls[text]++
	c.mu.Unlock()
	return c.Embedder.Embed(text)
}

func (c *countingEmbedder) count(text string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[text]
}

// cascadeFixture is filterDocs in a store, read through a context whose
// embedder counts.
func cascadeFixture(t *testing.T) (*Context, *index.Store, *countingEmbedder) {
	t.Helper()
	store := index.NewStore()
	for _, d := range filterDocs() {
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	e := newCountingEmbedder()
	return NewContext(WithLLM(llm.NewStack(llm.NewSim(1))), WithEmbedder(e)), store, e
}

func cascadeOver(ds *DocSet, questions ...string) *DocSet {
	return ds.LLMFilterCascade(questions, DefaultCascadeLow, DefaultCascadeHigh)
}

// TestCascadeEmbedsStoredDocumentOnce: the cascade's proxy vector of a
// document read from a store is computed by the first query that scores it
// and by none after — another question, a plan that replays a shared
// prefix — while each query embeds its own questions, and the cached-vector
// run keeps and drops what the run over the same documents in memory does.
func TestCascadeEmbedsStoredDocumentOnce(t *testing.T) {
	ctx := context.Background()
	ec, store, e := cascadeFixture(t)
	scan := func() *DocSet { return QueryDatabase(ec, store, index.Query{}) }

	first, firstTrace, err := cascadeOver(scan(), qBirdsInvolved).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cascadeOver(scan(), qWindshield).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	third, err := cascadeOver(scan().Shared(), qBirdsInvolved, qWindshield).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range store.Documents() {
		if n := e.count(d.EmbeddingText()); n != 1 {
			t.Errorf("document %s embedded %d times over three cascade queries, want once", d.ID, n)
		}
	}
	if b, w := e.count(qBirdsInvolved), e.count(qWindshield); b != 2 || w != 2 {
		t.Errorf("questions embedded %d and %d times, want once per query asking them (2, 2)", b, w)
	}
	if got := [][]string{ids(first), ids(second), ids(third)}; !reflect.DeepEqual(got, [][]string{{"A"}, {"A", "D"}, {"A"}}) {
		t.Errorf("cascades kept %v", got)
	}

	// The same documents in memory take no vector from any store: same
	// verdicts, same rung counts, a fresh embedding each.
	mem, memTrace, err := cascadeOver(FromDocuments(ec, filterDocs()), qBirdsInvolved).Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a, b := firstTrace.Nodes[1], memTrace.Nodes[1]
	if !reflect.DeepEqual(ids(mem), ids(first)) || a.ProxyDropped != b.ProxyDropped || a.Escalations != b.Escalations {
		t.Errorf("store-backed run kept %v (dropped %d, escalated %d), in-memory run %v (%d, %d)",
			ids(first), a.ProxyDropped, a.Escalations, ids(mem), b.ProxyDropped, b.Escalations)
	}
	if n := e.count(filterDocs()[0].EmbeddingText()); n != 2 {
		t.Errorf("in-memory document embedded %d times in all, want 2 (once by the store, once here)", n)
	}
}

// TestProxyVectorIsTheEmbedding: first computed or found kept, for the
// stored snapshot or a clone of it, the proxy vector scores a question to
// the bit as a fresh Embed of the document's text does.
func TestProxyVectorIsTheEmbedding(t *testing.T) {
	ec, store, _ := cascadeFixture(t)
	fresh := embed.NewHash(0)
	qvec := fresh.Embed(qBirdsInvolved)
	for _, d := range store.Documents() {
		want := math.Float64bits(embed.Cosine(qvec, fresh.Embed(d.EmbeddingText())))
		for name, doc := range map[string]*docmodel.Document{"first": d, "kept": d, "clone": d.Clone()} {
			if got := math.Float64bits(embed.Cosine(qvec, proxyVector(ec, store, doc))); got != want {
				t.Errorf("%s (%s): proxy score bits %x, a fresh Embed's %x", d.ID, name, got, want)
			}
		}
	}
}

// TestCascadeVectorFollowsTheText: a document put again under its ID, and a
// document a stage rewrote under a stored ID, are each scored by their own
// text's vector; the rewrite neither takes the stored document's vector nor
// displaces it.
func TestCascadeVectorFollowsTheText(t *testing.T) {
	ctx := context.Background()
	ec, store, e := cascadeFixture(t)
	scan := func() *DocSet { return QueryDatabase(ec, store, index.Query{}) }
	if _, err := cascadeOver(scan(), qBirdsInvolved).TakeAll(ctx); err != nil {
		t.Fatal(err)
	}

	// B said nothing of birds; its replacement does.
	reput := ntsbishDoc("B", "Hilo, Hawaii", "A flock of birds struck the airplane on final approach.")
	if err := store.PutDocument(reput); err != nil {
		t.Fatal(err)
	}
	out, err := cascadeOver(scan(), qBirdsInvolved).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(out); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("after the re-put the cascade kept %v, want [A B]: B was scored by the text it no longer has", got)
	}
	if n := e.count(reput.EmbeddingText()); n != 1 {
		t.Errorf("the re-put document was embedded %d times, want 1", n)
	}

	// A plan that rewrites D's text under D's ID (its source clones): the
	// rewritten document is embedded on every run and D keeps its vector.
	rewritten := "Birds struck the propeller during the takeoff roll."
	rewrite := func() *DocSet {
		return scan().Map("rewrite", func(d *docmodel.Document) (*docmodel.Document, error) {
			if d.ID == "D" {
				d.Elements, d.Text = nil, rewritten
			}
			return d, nil
		})
	}
	for run := 1; run <= 2; run++ {
		out, err := cascadeOver(rewrite(), qBirdsInvolved).TakeAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(out); !reflect.DeepEqual(got, []string{"A", "B", "D"}) {
			t.Errorf("run %d over the rewritten D kept %v, want [A B D]", run, got)
		}
		if n := e.count(rewritten); n != run {
			t.Errorf("run %d: the rewritten text was embedded %d times in all, want %d", run, n, run)
		}
	}
	stored, _ := store.Document("D")
	out, err = cascadeOver(scan(), qBirdsInvolved).TakeAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := ids(out); !reflect.DeepEqual(got, []string{"A", "B"}) || e.count(stored.EmbeddingText()) != 1 {
		t.Errorf("after the rewriting plan the stored D was kept (%v) or embedded again (%d times)", got, e.count(stored.EmbeddingText()))
	}
}

// TestCascadeVectorServesMutatingPlan: llmExtract ahead of the cascade makes
// the source clone every document on every run; the clones carry the stored
// text, so the second run embeds no document.
func TestCascadeVectorServesMutatingPlan(t *testing.T) {
	ctx := context.Background()
	ec, store, e := cascadeFixture(t)
	plan := func() *DocSet {
		return cascadeOver(QueryDatabase(ec, store, index.Query{}).
			LLMExtract([]llm.FieldSpec{{Name: "us_state", Type: "string"}}), qBirdsInvolved)
	}
	for run := 1; run <= 2; run++ {
		out, err := plan().TakeAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(out); !reflect.DeepEqual(got, []string{"A"}) || out[0].Property("us_state") != "AZ" {
			t.Errorf("run %d kept %v (A's us_state %q)", run, got, out[0].Property("us_state"))
		}
		stored, _ := store.Document("A")
		if out[0] == stored || stored.Property("us_state") != "" {
			t.Fatal("the mutating plan ran on the stored snapshot: the test no longer exercises clones")
		}
		for _, d := range store.Documents() {
			if n := e.count(d.EmbeddingText()); n != 1 {
				t.Errorf("run %d: document %s embedded %d times in all, want 1", run, d.ID, n)
			}
		}
	}
}

// TestCascadeVectorsConcurrentQueries: eight cascade queries at once over a
// store nobody has scored yet (run under -race) agree with each other, and
// once they are done every document's vector is kept: one more query embeds
// nothing.
func TestCascadeVectorsConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	ec, store, e := cascadeFixture(t)
	const queries = 8
	results := make([][]string, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := cascadeOver(QueryDatabase(ec.QueryScope(), store, index.Query{}), qBirdsInvolved, qWindshield).TakeAll(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ids(out)
		}()
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, []string{"A"}) {
			t.Errorf("query %d kept %v, want [A]", i, got)
		}
	}
	before := map[string]int{}
	for _, d := range store.Documents() {
		n := e.count(d.EmbeddingText())
		if n < 1 || n > queries {
			t.Errorf("document %s embedded %d times by %d racing queries", d.ID, n, queries)
		}
		before[d.ID] = n
	}
	if _, err := cascadeOver(QueryDatabase(ec, store, index.Query{}), qBirdsInvolved).TakeAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, d := range store.Documents() {
		if n := e.count(d.EmbeddingText()); n != before[d.ID] {
			t.Errorf("document %s embedded again after the race settled (%d -> %d)", d.ID, before[d.ID], n)
		}
	}
}
