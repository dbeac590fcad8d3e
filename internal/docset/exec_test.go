package docset

import (
	"context"
	"errors"
	"fmt"
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
	var chunks []*docmodel.Document
	mkChunk := func(parent string, i int, words int) {
		d := docmodel.New(fmt.Sprintf("%s#%d", parent, i))
		d.ParentID = parent
		d.SetProperty("p", parent)
		text := ""
		for w := 0; w < words; w++ {
			text += fmt.Sprintf("w%d ", w)
		}
		d.Text = text
		chunks = append(chunks, d)
	}
	for i := 0; i < 6; i++ {
		mkChunk("A", i, 30) // 6 chunks x 30 tokens -> 2 merged at 100
	}
	mkChunk("B", 0, 10) // parent boundary forces a flush

	out, err := FromDocuments(ec, chunks).MergeChunks(100).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("merged into %d chunks, want 3 (2 for A, 1 for B)", len(out))
	}
	for _, d := range out[:2] {
		if d.ParentID != "A" || d.Property("p") != "A" {
			t.Errorf("merged chunk lost provenance: %+v", d)
		}
	}
	if out[2].ParentID != "B" {
		t.Errorf("parent boundary not respected: %s", out[2].ParentID)
	}
	// Reading order preserved inside merged text.
	if !contains(out[0].Text, "w0") {
		t.Error("merged text lost content")
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
