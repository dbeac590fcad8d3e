package docset

import (
	"slices"
	"strings"

	"aryn/internal/docmodel"
	"aryn/internal/embed"
	"aryn/internal/llm"
)

// LLMExtractScoped is LLMExtract reading the part of each document its
// fields are in: the preamble before the first Section-header plus, per
// field, the section holding the most of that field's terms. The cheap
// prompt goes first and the exact one asks what it cannot settle: a
// document whose scoped reply leaves null a field that a section left out
// mentions is asked again whole, with LLMExtract's own prompt, and a
// document with no section to prefer is asked whole at once. The scope can
// still change a value (the model reads a sentence the whole document would
// have outranked), which is why the optimizer applies it only on request.
func (ds *DocSet) LLMExtractScoped(fields []llm.FieldSpec) *DocSet {
	return ds.llmExtract(fields, true)
}

// termSets is what sections are scored by: per set (a field, a question)
// the folded terms it is about, and every spelling of a term — embed.Fold
// drops function words and one plural "s", so t or t+"s" — with the sets
// it counts for. shapes (shape of each spelling) rules most tokens out
// before the map is consulted.
type termSets struct {
	sets     []map[string]bool
	spelling map[string][]int
	shapes   [1 << 12 / 64]uint64
}

// newTermSets indexes sets built by addSynonyms.
func newTermSets(sets []map[string]bool) *termSets {
	ts := &termSets{sets: sets, spelling: map[string][]int{}}
	for i, set := range sets {
		for term := range set {
			for _, tok := range []string{term, term + "s"} {
				if embed.Fold(tok) == term {
					ts.spelling[tok] = append(ts.spelling[tok], i)
					sh := shape([]byte(tok))
					ts.shapes[sh/64] |= 1 << (sh % 64)
				}
			}
		}
	}
	return ts
}

// shape is 12 bits of a token: its length, first and last byte, 4 each.
func shape(tok []byte) uint {
	return uint(len(tok)&15)<<8 | uint(tok[0]&15)<<4 | uint(tok[len(tok)-1]&15)
}

// addSynonyms adds to set the folded words of tok's synonyms (llm.Expand)
// and reports false when one of them is a single word the fold drops.
func addSynonyms(set map[string]bool, tok string) bool {
	ok := true
	for _, syn := range llm.Expand(tok) {
		words := llm.Tokenize(syn)
		for _, word := range words {
			if folded := embed.Fold(word); folded != "" {
				set[folded] = true
			} else if len(words) == 1 {
				ok = false
			}
		}
	}
	return ok
}

// fieldTerms is what a section is ranked by, per field: the terms of the
// field's name and description, each with its synonyms, folded as the
// embedder folds text (embed.Fold over llm.Tokenize).
func fieldTerms(fields []llm.FieldSpec) *termSets {
	out := make([]map[string]bool, len(fields))
	for i, f := range fields {
		out[i] = map[string]bool{}
		for _, tok := range llm.Tokenize(f.Name + " " + f.Description) {
			if term := embed.Fold(tok); term != "" {
				addSynonyms(out[i], term)
			}
		}
	}
	return newTermSets(out)
}

// filterTerms is, per filter question, its content tokens
// (llm.ContentTokens) with their synonyms, folded as fieldTerms folds
// them. A question with no content token, or a one-word concept the fold
// drops ("no", "not"), has a nil set: it reads the whole document.
func filterTerms(questions []string) *termSets {
	out := make([]map[string]bool, len(questions))
	for i, q := range questions {
		out[i] = map[string]bool{}
		for _, tok := range llm.ContentTokens(q) {
			if !addSynonyms(out[i], tok) {
				out[i] = nil
				break
			}
		}
		if len(out[i]) == 0 {
			out[i] = nil
		}
	}
	return newTermSets(out)
}

// score counts in scores[set][section] the tokens of text that fold to a
// term of set; buf is llm.EachToken's.
func (ts *termSets) score(scores [][]int, section int, text string, buf []byte) []byte {
	return llm.EachToken(text, buf, func(tok []byte) {
		if sh := shape(tok); ts.shapes[sh/64]&(1<<(sh%64)) != 0 {
			for _, set := range ts.spelling[string(tok)] {
				scores[set][section]++
			}
		}
	})
}

// newScores is a zero score per set for each of n sections.
func (ts *termSets) newScores(n int) [][]int {
	scores := make([][]int, len(ts.sets))
	for i := range scores {
		scores[i] = make([]int, n)
	}
	return scores
}

// scopeText is the text a scoped extract reads of a document cut into
// sections (docmodel.Document.Sections): the preamble and, for each field,
// the section where its terms occur most, ties to the earlier one, in
// reading order. It is empty — read the whole document — when there is no
// Section-header or no section holds a term of any field. elsewhere[f]
// reports that a section left out holds a term of field f: only then can the
// whole document answer f where the scope could not.
func scopeText(sections []string, terms *termSets) (scope string, elsewhere []bool) {
	if len(sections) < 2 {
		return "", nil
	}
	scores := terms.newScores(len(sections))
	var buf []byte
	for i := 1; i < len(sections); i++ {
		buf = terms.score(scores, i, sections[i], buf)
	}
	chosen := make([]bool, len(sections))
	for _, score := range scores {
		chosen[slices.Index(score, slices.Max(score))] = true
	}
	var sb strings.Builder
	for i, section := range sections[1:] {
		if chosen[i+1] {
			sb.WriteString(section)
		}
	}
	if sb.Len() == 0 {
		return "", nil
	}
	elsewhere = make([]bool, len(scores))
	for f, score := range scores {
		for i := 1; i < len(score); i++ {
			elsewhere[f] = elsewhere[f] || (score[i] > 0 && !chosen[i])
		}
	}
	return sections[0] + sb.String(), elsewhere
}

// filterGroup is the request group the llmFilter stage over questions sends
// for d; terms are the questions' term sets (filterTerms). A question's
// scope is d's lines (docmodel.Document.Lines) less the sections holding
// none of its terms outside rows the model reads as negatives
// (llm.NegatedRow); the packed prompt carries the union of the members'
// scopes. d is read whole when it has fewer than two sections or no ID
// (without a DOCUMENT-ID line the coin is the prompt's), and by a question
// with a nil set. A section every question keeps already is not read
// further.
func filterGroup(questions []string, terms *termSets, d *docmodel.Document) llm.Group {
	lines := d.Lines()
	sections := 1
	if len(lines) > 0 {
		sections = lines[len(lines)-1].Section + 1
	}
	if d.ID == "" || sections < 2 || !slices.ContainsFunc(terms.sets, func(set map[string]bool) bool { return set != nil }) {
		whole := joinLines(lines, nil)
		return llm.FilterGroup(questions, d.ID, func([]int) string { return whole })
	}
	scores := terms.newScores(sections)
	settled := func(section int) bool { // every question keeps it already
		for q, set := range terms.sets {
			if set != nil && scores[q][section] == 0 {
				return false
			}
		}
		return true
	}
	var buf []byte
	for _, l := range lines {
		if l.Section == 0 || settled(l.Section) {
			continue
		}
		for text := l.Text; text != ""; {
			var row string
			row, text, _ = strings.Cut(text, "\n")
			if !llm.NegatedRow(row) {
				buf = terms.score(scores, l.Section, row, buf)
			}
		}
	}
	return llm.FilterGroup(questions, d.ID, func(members []int) string {
		keep := make([]bool, sections)
		keep[0] = true
		for _, q := range members {
			for i := range keep {
				keep[i] = keep[i] || terms.sets[q] == nil || scores[q][i] > 0
			}
		}
		return joinLines(lines, keep)
	})
}

// joinLines is the TextContent of the lines whose section keep keeps (all
// when keep is nil).
func joinLines(lines []docmodel.Line, keep []bool) string {
	kept := func(l docmodel.Line) bool { return keep == nil || keep[l.Section] }
	n := 0
	for _, l := range lines {
		if kept(l) {
			n += len(l.Text) + 1
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, l := range lines {
		if kept(l) {
			sb.WriteString(l.Text)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
