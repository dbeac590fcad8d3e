package docset

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/index"
)

func testDocs(n int) []*docmodel.Document {
	docs := make([]*docmodel.Document, n)
	for i := range docs {
		d := docmodel.New(fmt.Sprintf("d%03d", i))
		d.Text = fmt.Sprintf("document number %d", i)
		d.SetProperty("i", i)
		d.SetProperty("parity", []string{"even", "odd"}[i%2])
		docs[i] = d
	}
	return docs
}

// flatMap appends a one-to-many map stage (the shape of MergeChunks) running fn.
func flatMap(ds *DocSet, name string, fn func(*docmodel.Document) ([]*docmodel.Document, error)) *DocSet {
	return ds.with(stageSpec{
		name:    "flatMap[" + name + "]",
		kind:    mapKind,
		mutates: true,
		mapFn: func(_ *Context, d *docmodel.Document) ([]*docmodel.Document, error) {
			return fn(d)
		},
	})
}

func TestMapFilterFlatMap(t *testing.T) {
	ec := NewContext()
	ds := FromDocuments(ec, testDocs(10)).
		Filter("even", func(d *docmodel.Document) (bool, error) {
			i, _ := d.Properties.Int("i")
			return i%2 == 0, nil
		}).
		Map("tag", func(d *docmodel.Document) (*docmodel.Document, error) {
			d.SetProperty("tagged", true)
			return d, nil
		})
	ds = flatMap(ds, "dup", func(d *docmodel.Document) ([]*docmodel.Document, error) {
		c := d.Clone()
		c.ID += "-copy"
		return []*docmodel.Document{d, c}, nil
	})
	docs, trace, err := ds.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 { // 5 even docs duplicated
		t.Fatalf("got %d docs, want 10", len(docs))
	}
	for _, d := range docs {
		if v, _ := d.Properties.Get("tagged"); v != true {
			t.Errorf("%s not tagged", d.ID)
		}
	}
	// Trace counts.
	if nt := traceNode(trace, "filter[even]"); nt == nil || nt.In != 10 || nt.Out != 5 {
		t.Errorf("filter trace wrong: %+v", nt)
	}
	if nt := traceNode(trace, "flatMap[dup]"); nt == nil || nt.Out != 10 {
		t.Errorf("flatMap trace wrong: %+v", nt)
	}
}

func TestDeterministicOrderAcrossParallelism(t *testing.T) {
	run := func(par int) []string {
		ec := NewContext(WithParallelism(par))
		ds := flatMap(FromDocuments(ec, testDocs(50)).
			Map("noop", func(d *docmodel.Document) (*docmodel.Document, error) { return d, nil }),
			"expand", func(d *docmodel.Document) ([]*docmodel.Document, error) {
				c := d.Clone()
				c.ID += "-x"
				return []*docmodel.Document{d, c}, nil
			})
		docs, err := ds.TakeAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(docs))
		for i, d := range docs {
			ids[i] = d.ID
		}
		return ids
	}
	seq := run(1)
	par := run(16)
	if strings.Join(seq, ",") != strings.Join(par, ",") {
		t.Error("output order must not depend on parallelism")
	}
	// And must match source order.
	if seq[0] != "d000" || seq[1] != "d000-x" || seq[2] != "d001" {
		t.Errorf("unexpected head order: %v", seq[:4])
	}
}

func TestLazinessNothingRunsUntilExecute(t *testing.T) {
	ec := NewContext()
	var ran atomic.Bool
	ds := FromDocuments(ec, testDocs(3)).Map("sideeffect", func(d *docmodel.Document) (*docmodel.Document, error) {
		ran.Store(true)
		return d, nil
	})
	if ran.Load() {
		t.Fatal("map ran before Execute")
	}
	if _, err := ds.TakeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("map never ran")
	}
}

func TestPlanImmutability(t *testing.T) {
	ec := NewContext()
	base := FromDocuments(ec, testDocs(4))
	a := base.Filter("a", func(d *docmodel.Document) (bool, error) { return true, nil })
	b := base.Filter("b", func(d *docmodel.Document) (bool, error) { return false, nil })
	da, _ := a.TakeAll(context.Background())
	db, _ := b.TakeAll(context.Background())
	if len(da) != 4 || len(db) != 0 {
		t.Errorf("branching plans interfered: %d, %d", len(da), len(db))
	}
	if len(base.stages) != 0 {
		t.Error("base plan mutated")
	}
}

func TestSourceDocumentsNotMutated(t *testing.T) {
	ec := NewContext()
	src := testDocs(2)
	ds := FromDocuments(ec, src).Map("mutate", func(d *docmodel.Document) (*docmodel.Document, error) {
		d.SetProperty("i", 999)
		return d, nil
	})
	if _, err := ds.TakeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := src[0].Properties.Int("i"); v != 0 {
		t.Error("transform mutated caller-owned source document")
	}
}

func TestErrorPropagationAndCancellation(t *testing.T) {
	ec := NewContext(WithParallelism(4))
	boom := errors.New("boom")
	ds := FromDocuments(ec, testDocs(100)).Map("explode", func(d *docmodel.Document) (*docmodel.Document, error) {
		if i, _ := d.Properties.Int("i"); i == 13 {
			return nil, boom
		}
		return d, nil
	})
	_, _, err := ds.Execute(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestContextCancellationStopsPipeline(t *testing.T) {
	ec := NewContext()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := FromDocuments(ec, testDocs(10)).Execute(ctx)
	if err == nil {
		t.Fatal("cancelled execute should error")
	}
}

func TestReduceByKeySortedAndSkipsEmptyKeys(t *testing.T) {
	ec := NewContext()
	docs := testDocs(10)
	docs[3].SetProperty("parity", "") // missing key -> dropped
	out, err := FromDocuments(ec, docs).
		reduceByKey("parity", func(d *docmodel.Document) string { return d.Property("parity") },
			func(key string, group []*docmodel.Document) (*docmodel.Document, error) {
				r := docmodel.New(key)
				r.SetProperty("n", len(group))
				return r, nil
			}).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].ID != "even" || out[1].ID != "odd" {
		t.Fatalf("groups = %v", ids(out))
	}
	nEven, _ := out[0].Properties.Int("n")
	nOdd, _ := out[1].Properties.Int("n")
	if nEven != 5 || nOdd != 4 {
		t.Errorf("even=%d odd=%d (doc 3 should be dropped)", nEven, nOdd)
	}
}

func TestLimitAndSortBy(t *testing.T) {
	ec := NewContext()
	docs, err := FromDocuments(ec, testDocs(10)).SortBy("i", true).Limit(3).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || docs[0].ID != "d009" || docs[2].ID != "d007" {
		t.Fatalf("top3 = %v", ids(docs))
	}
	// Ascending with missing values last.
	extra := testDocs(3)
	extra[1].Properties = docmodel.Properties(nil).Set("parity", extra[1].Property("parity"))
	asc, _ := FromDocuments(ec, extra).SortBy("i", false).TakeAll(context.Background())
	if asc[len(asc)-1].ID != "d001" {
		t.Errorf("missing value should sort last: %v", ids(asc))
	}
}

func TestDistinct(t *testing.T) {
	ec := NewContext()
	docs := testDocs(6)
	for i := range docs {
		docs[i].SetProperty("acc", fmt.Sprintf("A%d", i/2)) // pairs share keys
	}
	out, err := FromDocuments(ec, docs).Distinct("acc").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("distinct kept %d, want 3", len(out))
	}
}

func TestGroupByAggregate(t *testing.T) {
	ec := NewContext()
	out, err := FromDocuments(ec, testDocs(10)).
		GroupByAggregate("parity", AggSum, "i").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	even, _ := out[0].Properties.Float("value") // 0+2+4+6+8
	odd, _ := out[1].Properties.Float("value")  // 1+3+5+7+9
	if even != 20 || odd != 25 {
		t.Errorf("sum even=%v odd=%v", even, odd)
	}
	cnt, _ := FromDocuments(ec, testDocs(10)).GroupByAggregate("parity", AggCount, "").TakeAll(context.Background())
	if v, _ := cnt[0].Properties.Int("value"); v != 5 {
		t.Errorf("count = %d", v)
	}
	avg, _ := FromDocuments(ec, testDocs(10)).GroupByAggregate("parity", AggAvg, "i").TakeAll(context.Background())
	if v, _ := avg[1].Properties.Float("value"); v != 5 {
		t.Errorf("avg odd = %v", v)
	}
	mn, _ := FromDocuments(ec, testDocs(10)).GroupByAggregate("parity", AggMin, "i").TakeAll(context.Background())
	mx, _ := FromDocuments(ec, testDocs(10)).GroupByAggregate("parity", AggMax, "i").TakeAll(context.Background())
	if v, _ := mn[0].Properties.Float("value"); v != 0 {
		t.Errorf("min even = %v", v)
	}
	if v, _ := mx[0].Properties.Float("value"); v != 8 {
		t.Errorf("max even = %v", v)
	}
}

func TestGroupByAggregateUnknownAgg(t *testing.T) {
	ec := NewContext()
	_, _, err := FromDocuments(ec, testDocs(2)).GroupByAggregate("parity", AggKind("median"), "i").Execute(context.Background())
	if err == nil {
		t.Error("unknown aggregation should error")
	}
}

func TestTopK(t *testing.T) {
	ec := NewContext()
	out, err := FromDocuments(ec, testDocs(10)).
		GroupByAggregate("parity", AggCount, "").
		TopK("value", 1).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Property("parity") != "even" {
		t.Fatalf("topK = %v", ids(out))
	}
}

func TestCountAndTake(t *testing.T) {
	ec := NewContext()
	docs, err := FromDocuments(ec, testDocs(7)).Limit(2).TakeAll(context.Background())
	if err != nil || len(docs) != 2 {
		t.Fatalf("Limit(2).TakeAll = %d, %v", len(docs), err)
	}
}

func TestQueryDatabaseSource(t *testing.T) {
	ec := NewContext()
	store := index.NewStore()
	for _, d := range testDocs(5) {
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := QueryDatabase(ec, store, index.Query{Filter: index.Term("parity", "odd")}).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("odd docs = %v", ids(docs))
	}
}

// TestQueryDatabaseCopyOnWrite pins the zero-clone contract: pure-read
// plans flow the store's shared snapshots straight through, while plans
// containing a mutating operator clone at the source so the indexed
// documents stay pristine.
func TestQueryDatabaseCopyOnWrite(t *testing.T) {
	ec := NewContext()
	store := index.NewStore()
	for _, d := range testDocs(4) {
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}

	// Read-only plan: output documents ARE the store snapshots.
	docs, err := QueryDatabase(ec, store, index.Query{}).
		Filter("all", func(*docmodel.Document) (bool, error) { return true, nil }).
		TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(store.Documents(), func(d *docmodel.Document) bool { return d.ID == docs[0].ID })
	if i < 0 || docs[0] != store.Documents()[i] {
		t.Error("pure-read plan should pass shared snapshots through without cloning")
	}

	// Mutating plan: the Map writes to its input, which must be a clone.
	mutated, err := QueryDatabase(ec, store, index.Query{}).
		Map("poison", func(d *docmodel.Document) (*docmodel.Document, error) {
			d.SetProperty("poisoned", true)
			return d, nil
		}).
		TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(mutated) != 4 {
		t.Fatalf("mutating plan returned %d docs", len(mutated))
	}
	for _, d := range store.Documents() {
		if _, ok := d.Properties.Get("poisoned"); ok {
			t.Fatalf("mutating plan leaked writes into stored snapshot %s", d.ID)
		}
	}
}

// TestNeedsSourceClone pins the plan-level clone decision: only a mutator
// reachable by the source documents (i.e. before any fresh-document
// barrier) forces the copy.
func TestNeedsSourceClone(t *testing.T) {
	ec := NewContext()
	store := index.NewStore()
	src := func() *DocSet { return QueryDatabase(ec, store, index.Query{}) }
	ident := func(d *docmodel.Document) (*docmodel.Document, error) { return d, nil }

	if src().GroupByAggregate("k", AggCount, "").needsSourceClone() {
		t.Error("read-only aggregation must not clone the source")
	}
	if !src().Map("m", ident).needsSourceClone() {
		t.Error("a Map over source documents must clone")
	}
	if src().GroupByAggregate("k", AggCount, "").Map("m", ident).needsSourceClone() {
		t.Error("a mutator after a fresh aggregation barrier must not clone the source")
	}
	if !src().Map("m", ident).GroupByAggregate("k", AggCount, "").needsSourceClone() {
		t.Error("a mutator before the barrier must still clone")
	}
	if src().LLMReduceByKey("k", "summarize").needsSourceClone() {
		t.Error("LLMReduceByKey only mutates its fresh group documents")
	}
}

// TestReadBinaryOwnsItsDocuments: ReadBinary's documents are its own, so a
// mutating pipeline over them clones nothing at the source — Binary is the
// caller's blob, read in place, never a copy — and each execution builds
// them afresh, so one run's mutation is not the next run's input.
func TestReadBinaryOwnsItsDocuments(t *testing.T) {
	blobs := map[string][]byte{"b": []byte("second blob"), "a": []byte("first blob")}
	ds := ReadBinary(NewContext(), blobs).Map("mark", func(d *docmodel.Document) (*docmodel.Document, error) {
		if d.Property("runs") != "" {
			return nil, fmt.Errorf("%s: a document of an earlier run came back", d.ID)
		}
		d.SetProperty("runs", 1)
		return d, nil
	})
	if ds.needsSourceClone() {
		t.Fatal("a mutating plan over ReadBinary clones its source")
	}
	for run := 0; run < 2; run++ {
		out, err := ds.TakeAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || out[0].ID != "a" || out[1].ID != "b" {
			t.Fatalf("run %d: documents %v", run, ids(out))
		}
		for _, d := range out {
			if &d.Binary[0] != &blobs[d.ID][0] || len(d.Binary) != len(blobs[d.ID]) {
				t.Errorf("run %d: %s carries a copy of its blob, not the blob", run, d.ID)
			}
		}
	}
}

func TestWriteRoutesDocsAndChunks(t *testing.T) {
	ec := NewContext()
	store := index.NewStore()
	parent := docmodel.New("P")
	parent.AddElement(&docmodel.Element{Type: docmodel.Text, Text: "alpha beta", Page: 1})
	parent.AddElement(&docmodel.Element{Type: docmodel.Text, Text: "gamma delta", Page: 2})

	// Write parents, then chunk+embed+write chunks (the Fig. 4 pipeline);
	// a 2-token budget cuts one passage per element.
	_, err := FromDocuments(ec, []*docmodel.Document{parent}).
		Write(store).
		MergeChunks(2).
		Embed().
		Write(store).
		TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if store.NumDocs() != 1 || store.NumChunks() != 2 {
		t.Fatalf("store has %d docs %d chunks", store.NumDocs(), store.NumChunks())
	}
	hits := store.SearchDocs(index.Query{Keyword: "gamma"})
	if len(hits) != 1 || hits[0].Doc.ID != "P" {
		t.Errorf("reassembly failed: %+v", hits)
	}
}

func TestPlanString(t *testing.T) {
	ec := NewContext()
	s := FromDocuments(ec, testDocs(1)).MergeChunks(120).Limit(5).PlanString()
	for _, want := range []string{"scan[memory", "mergeChunks[120 tok]", "limit[5]"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan missing %q:\n%s", want, s)
		}
	}
}

// traceNode returns the trace entry with the given name (nil if absent).
func traceNode(t *Trace, name string) *NodeTrace {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

func ids(docs []*docmodel.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}
