package docset

import (
	"context"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docparse"
	"aryn/internal/embed"
	"aryn/internal/llm"
	"aryn/internal/ntsb"
)

// scopeByDefinition is a filter question's scope as the contract states
// it, computed the plain way: every section of d.Sections kept that, its
// negated rows left out, has a token llm.Tokenize and embed.Fold turn into
// a term of one of the members' sets (a nil set keeps every section), and
// TextContent's lines of the kept sections joined.
func scopeByDefinition(d *docmodel.Document, sets []map[string]bool, members []int) string {
	sections := d.Sections()
	keep := make([]bool, len(sections))
	keep[0] = true
	for i := 1; i < len(sections); i++ {
		for _, row := range strings.Split(sections[i], "\n") {
			if llm.NegatedRow(row) {
				continue
			}
			for _, tok := range llm.Tokenize(row) {
				for _, q := range members {
					keep[i] = keep[i] || sets[q] == nil || sets[q][embed.Fold(tok)]
				}
			}
		}
		for _, q := range members {
			keep[i] = keep[i] || sets[q] == nil
		}
	}
	var sb strings.Builder
	for _, l := range d.Lines() {
		if keep[l.Section] {
			sb.WriteString(l.Text + "\n")
		}
	}
	return sb.String()
}

// TestFilterScopeMatchesDefinition holds filterGroup's one-walk scoring
// (token shapes, one map lookup per token, sections settled early) to the
// plain definition: over a generated corpus, every solo prompt and the
// packed prompt of a pair are the ones scopeByDefinition gives.
func TestFilterScopeMatchesDefinition(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(60, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	docs, err := ReadBinary(NewContext(), blobs).Partition(docparse.New()).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	questions := []string{
		"Was the incident caused by engine problems?",
		"Did the incident involve substantial damage?",
		"Does the report mention a fire?",
		"Does the report mention birds?",
		"Was the aircraft flying under instrument meteorological conditions?",
		"Is it?",
	}
	terms := filterTerms(questions)
	scoped := 0
	for _, d := range docs {
		for i := 0; i+1 < len(questions); i++ {
			pair := []string{questions[i], questions[i+1]}
			pairTerms := filterTerms(pair)
			g := filterGroup(pair, pairTerms, d)
			for j, q := range pair {
				want := llm.FilterPrompt(q, d.ID, scopeByDefinition(d, terms.sets[i:i+2], []int{j}))
				if got := g.Reqs[j].Prompt; got != want {
					t.Fatalf("%s, %q:\n%s\nwant\n%s", d.ID, q, got, want)
				}
				if len(want) < len(llm.FilterPrompt(q, d.ID, d.TextContent())) {
					scoped++
				}
			}
			packed := g.Pack([]int{0, 1}).Prompt
			if !strings.Contains(packed, "\n<<<DOCUMENT\n"+scopeByDefinition(d, terms.sets[i:i+2], []int{0, 1})) {
				t.Fatalf("%s, %q: the packed prompt is not the union of the scopes:\n%s", d.ID, pair, packed)
			}
		}
	}
	if scoped == 0 {
		t.Error("no prompt was scoped: the corpus no longer exercises the scope")
	}
}
