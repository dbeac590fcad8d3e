package docset

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
)

func TestSeqLessLexicographic(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{[]int32{1}, []int32{2}, true},
		{[]int32{2}, []int32{1}, false},
		{[]int32{1}, []int32{1, 0}, true}, // prefix sorts first
		{[]int32{1, 0}, []int32{1}, false},
		{[]int32{1, 2}, []int32{1, 3}, true},
		{[]int32{1, 2}, []int32{1, 2}, false},
	}
	for _, c := range cases {
		if got := seqLess(c.a, c.b); got != c.want {
			t.Errorf("seqLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSeqLessTotalOrder(t *testing.T) {
	// Irreflexive and asymmetric for arbitrary sequences.
	f := func(a, b []int32) bool {
		if seqLess(a, a) || seqLess(b, b) {
			return false
		}
		return !(seqLess(a, b) && seqLess(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChildSeqDoesNotAliasParent(t *testing.T) {
	parent := []int32{1, 2}
	c1 := childSeq(parent, 0)
	c2 := childSeq(parent, 1)
	c1[2] = 99
	if c2[2] != 1 {
		t.Error("sibling sequences alias the same array")
	}
	if parent[0] != 1 || parent[1] != 2 {
		t.Error("parent mutated")
	}
}

func TestBarrierErrorPropagates(t *testing.T) {
	ec := NewContext()
	boom := errors.New("barrier boom")
	_, _, err := FromDocuments(ec, testDocs(5)).
		reduceByKey("x", func(d *docmodel.Document) string { return "k" },
			func(string, []*docmodel.Document) (*docmodel.Document, error) { return nil, boom }).
		Execute(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	ec := NewContext()
	boom := errors.New("source boom")
	ds := &DocSet{ctx: ec, source: sourceSpec{
		name: "failing",
		emit: func(ctx context.Context, _ *Context, yield func(*docmodel.Document) error) error {
			if err := yield(docmodel.New("one")); err != nil {
				return err
			}
			return boom
		},
	}}
	_, _, err := ds.Execute(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestTraceDurationsAndRender(t *testing.T) {
	ec := NewContext()
	_, trace, err := FromDocuments(ec, testDocs(5)).
		Map("slow", func(d *docmodel.Document) (*docmodel.Document, error) { return d, nil }).
		Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := trace.String()
	for _, want := range []string{"operator", "map[slow]", "wall time"} {
		if !contains(s, want) {
			t.Errorf("trace render missing %q:\n%s", want, s)
		}
	}
	if traceNode(trace, "map[slow]") == nil {
		t.Error("trace has no map[slow] entry")
	}
}

func TestMergeChunks(t *testing.T) {
	ec := NewContext()
	words := func(first string, n int) string {
		w := []string{first}
		for i := 1; i < n; i++ {
			w = append(w, fmt.Sprintf("w%d", i))
		}
		return strings.Join(w, " ")
	}
	a := docmodel.New("A")
	a.Title = "report A"
	a.SetProperty("us_state", "KY")
	a.AddElement(&docmodel.Element{Type: docmodel.PageHeader, Text: "HEADER of every page", Page: 1})
	for i := 0; i < 6; i++ { // 6 elements x 30 tokens -> 2 passages at 100
		a.AddElement(&docmodel.Element{Type: docmodel.Text, Text: words(fmt.Sprintf("a%d", i), 30), Page: 1 + i/3})
	}
	a.AddElement(&docmodel.Element{Type: docmodel.Table, Page: 3, Table: &docmodel.TableData{
		NumRows: 1, NumCols: 2,
		Cells: []docmodel.TableCell{{Row: 0, Col: 0, Text: "k"}, {Row: 0, Col: 1, Text: "v"}},
	}})
	a.AddElement(&docmodel.Element{Type: docmodel.PageFooter, Text: "FOOTER of every page", Page: 3})
	b := docmodel.New("B")
	b.SetProperty("us_state", "OH")
	b.AddElement(&docmodel.Element{Type: docmodel.Text, Text: words("b0", 10), Page: 1})

	out, err := FromDocuments(ec, []*docmodel.Document{a, b}).MergeChunks(100).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Passages are numbered within their report, never across the upload.
	if got := ids(out); !slices.Equal(got, []string{"A#m1", "A#m2", "B#m1"}) {
		t.Fatalf("passages %v, want [A#m1 A#m2 B#m1]", got)
	}
	parents := map[string]*docmodel.Document{"A": a, "B": b}
	var readA []string
	for i, c := range out {
		p := parents[c.ParentID]
		if p == nil || c.Title != p.Title || c.Property("us_state") != p.Property("us_state") {
			t.Errorf("passage %s lost its parent's provenance: parent %q title %q us_state %q", c.ID, c.ParentID, c.Title, c.Property("us_state"))
		}
		var texts []string
		tokens := 0
		for _, e := range c.Elements {
			if e.Type.IsFurniture() {
				t.Errorf("passage %s carries furniture %q", c.ID, e.Text)
			}
			if slices.Contains(p.AllElements(), e) {
				t.Errorf("passage %s shares an element with its parent, want a copy", c.ID)
			}
			texts = append(texts, docmodel.ChunkText(e))
			tokens += llm.CountTokens(docmodel.ChunkText(e))
		}
		if c.Text != strings.Join(texts, "\n") {
			t.Errorf("passage %s text %q, want its elements' texts joined", c.ID, c.Text)
		}
		if tokens > 100 {
			t.Errorf("passage %s holds %d tokens, budget 100", c.ID, tokens)
		}
		// A passage ends only where its next element would overflow it.
		if i+1 < len(out) && out[i+1].ParentID == c.ParentID {
			if next := llm.CountTokens(docmodel.ChunkText(out[i+1].Elements[0])); tokens+next <= 100 {
				t.Errorf("passage %s ends at %d tokens, but its next element (%d) fits", c.ID, tokens, next)
			}
		}
		if c.ParentID == "A" {
			readA = append(readA, texts...)
		}
	}
	// Reading order: A's passages hold its content elements, in order.
	var wantA []string
	for _, e := range a.AllElements() {
		if !e.Type.IsFurniture() {
			wantA = append(wantA, docmodel.ChunkText(e))
		}
	}
	if !slices.Equal(readA, wantA) {
		t.Errorf("A's passages read %q, want %q", readA, wantA)
	}
	if !strings.Contains(out[1].Text, "| k | v |") {
		t.Errorf("table passage should carry markdown, got %q", out[1].Text)
	}
	for _, c := range out {
		if strings.Contains(c.Text, "HEADER") || strings.Contains(c.Text, "FOOTER") {
			t.Errorf("passage %s carries page furniture: %q", c.ID, c.Text)
		}
	}
	// Each passage has a properties map of its own.
	out[0].SetProperty("us_state", "TX")
	if a.Property("us_state") != "KY" || out[1].Property("us_state") != "KY" {
		t.Error("a passage shares its properties map with its parent or a sibling")
	}
}

func TestLLMReduceByKeyUsesOneCallPerGroup(t *testing.T) {
	scripted := &llm.Scripted{Responses: []llm.Response{{Text: "combined"}}}
	ec := NewContext(WithLLM(scripted))
	docs := testDocs(6) // parity groups: even/odd
	out, err := FromDocuments(ec, docs).LLMReduceByKey("parity", "combine").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	if scripted.Calls() != 2 {
		t.Errorf("LLM calls = %d, want one per group", scripted.Calls())
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
