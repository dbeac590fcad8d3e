package docset

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"aryn/internal/docmodel"
)

// errBoom is a shared sentinel for failure-propagation tests.
var errBoom = errors.New("boom")

// joinFixtures builds a left DocSet of incidents and a right DocSet of an
// aircraft-registry "dimension table".
func joinFixtures(ec *Context) (*DocSet, *DocSet) {
	mk := func(id string, props map[string]any) *docmodel.Document {
		d := docmodel.New(id)
		for k, v := range props {
			d.SetProperty(k, v)
		}
		return d
	}
	left := FromDocuments(ec, []*docmodel.Document{
		mk("I1", map[string]any{"manufacturer": "Cessna", "state": "KY"}),
		mk("I2", map[string]any{"manufacturer": "Piper", "state": "CA"}),
		mk("I3", map[string]any{"manufacturer": "Unknown Works", "state": "TX"}),
		mk("I4", map[string]any{"manufacturer": "cessna", "state": "AZ"}), // case fold
	})
	right := FromDocuments(ec, []*docmodel.Document{
		mk("M1", map[string]any{"maker": "Cessna", "hq": "Wichita", "founded": 1927}),
		mk("M2", map[string]any{"maker": "Piper", "hq": "Vero Beach", "founded": 1927}),
		mk("M3", map[string]any{"maker": "Mooney", "hq": "Kerrville", "founded": 1929}),
	})
	return left, right
}

func TestInnerJoin(t *testing.T) {
	ec := NewContext()
	left, right := joinFixtures(ec)
	docs, err := left.Join(right, "manufacturer", "maker", "mfr", InnerJoin).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 { // I1, I2, I4 (case-insensitive); I3 dropped
		t.Fatalf("inner join produced %d docs: %v", len(docs), ids(docs))
	}
	if docs[0].Property("mfr.hq") != "Wichita" {
		t.Errorf("join enrichment missing: %v", docs[0].Properties.JSON())
	}
	if docs[0].Property("state") != "KY" {
		t.Error("left properties lost")
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	ec := NewContext()
	left, right := joinFixtures(ec)
	docs, err := left.Join(right, "manufacturer", "maker", "mfr", LeftJoin).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("left join produced %d docs", len(docs))
	}
	var unmatched *docmodel.Document
	for _, d := range docs {
		if d.ID == "I3" {
			unmatched = d
		}
	}
	if unmatched == nil {
		t.Fatal("unmatched left doc dropped")
	}
	if unmatched.Property("mfr.hq") != "" {
		t.Error("unmatched doc should not be enriched")
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	ec := NewContext()
	left, right := joinFixtures(ec)
	semi, err := left.Join(right, "manufacturer", "maker", "", SemiJoin).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(semi) != 3 {
		t.Errorf("semi join = %v", ids(semi))
	}
	for _, d := range semi {
		if d.Property("right.hq") != "" {
			t.Error("semi join must not enrich")
		}
	}
	left2, right2 := joinFixtures(ec)
	anti, err := left2.Join(right2, "manufacturer", "maker", "", AntiJoin).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(anti) != 1 || anti[0].ID != "I3" {
		t.Errorf("anti join = %v", ids(anti))
	}
}

func TestJoinOneToMany(t *testing.T) {
	ec := NewContext()
	mk := func(id, k string) *docmodel.Document {
		d := docmodel.New(id)
		d.SetProperty("k", k)
		return d
	}
	left := FromDocuments(ec, []*docmodel.Document{mk("L1", "x")})
	right := FromDocuments(ec, []*docmodel.Document{mk("R1", "x"), mk("R2", "x")})
	docs, err := left.Join(right, "k", "k", "r", InnerJoin).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("one-to-many should emit one doc per match, got %d", len(docs))
	}
}

func TestJoinRightSideErrorPropagates(t *testing.T) {
	ec := NewContext()
	left, _ := joinFixtures(ec)
	failing := FromDocuments(ec, testDocs(2)).Map("boom", func(d *docmodel.Document) (*docmodel.Document, error) {
		return nil, errBoom
	})
	if _, err := left.Join(failing, "manufacturer", "maker", "", InnerJoin).TakeAll(context.Background()); err == nil {
		t.Error("right-side failure should propagate")
	}
}

func TestJoinUnknownKind(t *testing.T) {
	ec := NewContext()
	left, right := joinFixtures(ec)
	if _, err := left.Join(right, "manufacturer", "maker", "", JoinKind("cross")).TakeAll(context.Background()); err == nil {
		t.Error("unknown join kind should fail")
	}
}

func TestSharedExecutesSubtreeOnce(t *testing.T) {
	ec := NewContext()
	left, _ := joinFixtures(ec)
	var runs atomic.Int64
	shared := left.Map("counted", func(d *docmodel.Document) (*docmodel.Document, error) {
		runs.Add(1)
		return d, nil
	}).ShareTask().DocSet()

	// A diamond: the shared subtree probes AND builds the same join.
	docs, _, err := shared.Join(shared, "manufacturer", "manufacturer", "self", InnerJoin).
		Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("self-join returned nothing")
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("shared subtree ran its map %d times, want 4 (once per doc, one execution)", got)
	}
}

func TestJoinBuildSideHonorsCancellation(t *testing.T) {
	// Parallelism 1 makes the build side deterministic: its first map
	// call cancels the query context, so the remaining two documents
	// must never be processed — the build side runs under the outer
	// plan's context, not context.Background().
	ec := NewContext(WithParallelism(1))
	left, right := joinFixtures(ec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	cancellingRight := right.Map("cancelling", func(d *docmodel.Document) (*docmodel.Document, error) {
		runs.Add(1)
		cancel()
		return d, nil
	})
	_, _, err := left.Join(cancellingRight, "manufacturer", "maker", "", InnerJoin).Execute(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled join should surface context.Canceled, got %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("build side processed %d documents after cancellation, want 1", got)
	}
}
