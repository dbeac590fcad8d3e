package docset

import (
	"strings"

	"aryn/internal/embed"
	"aryn/internal/llm"
)

// LLMExtractScoped is LLMExtract reading the part of each document its
// fields are in: the preamble before the first Section-header plus, per
// field, the section holding the most of that field's terms. It is the
// cascade's discipline applied to extraction — the cheap prompt first, the
// exact one for what it cannot settle: a document whose scoped reply leaves
// null a field that a section left out mentions is asked again whole, with
// LLMExtract's own prompt, and a document with no section to prefer is asked
// whole at once. The scope can still change a value (the model reads a
// sentence the whole document would have outranked), which is why the
// optimizer applies it only on request.
func (ds *DocSet) LLMExtractScoped(fields []llm.FieldSpec) *DocSet {
	return ds.llmExtract(fields, true)
}

// fieldTerms is what a section is ranked by, per field: the terms of the
// field's name and description, each with its synonyms, folded as the
// embedder folds text (embed.Fold over llm.Tokenize and llm.Expand).
func fieldTerms(fields []llm.FieldSpec) []map[string]bool {
	out := make([]map[string]bool, len(fields))
	for i, f := range fields {
		out[i] = map[string]bool{}
		for _, tok := range llm.Tokenize(f.Name + " " + f.Description) {
			term := embed.Fold(tok)
			if term == "" {
				continue
			}
			for _, syn := range llm.Expand(term) {
				for _, word := range llm.Tokenize(syn) {
					if folded := embed.Fold(word); folded != "" {
						out[i][folded] = true
					}
				}
			}
		}
	}
	return out
}

// scopeText is the text a scoped extract reads of a document cut into
// sections (docmodel.Document.Sections): the preamble and, for each field,
// the section where its terms occur most, ties to the earlier one, in
// reading order. It is empty — read the whole document — when there is no
// Section-header or no section holds a term of any field. elsewhere[f]
// reports that a section left out holds a term of field f: only then can the
// whole document answer f where the scope could not. Ranking is one
// tokenization of the document: no vectors, nothing kept between calls.
func scopeText(sections []string, terms []map[string]bool) (scope string, elsewhere []bool) {
	if len(sections) < 2 {
		return "", nil
	}
	// scores[f][i] counts field f's terms in section i; the preamble scores
	// 0 and is always in.
	scores := make([][]int, len(terms))
	for f := range scores {
		scores[f] = make([]int, len(sections))
	}
	for i := 1; i < len(sections); i++ {
		for _, tok := range llm.Tokenize(sections[i]) {
			term := embed.Fold(tok)
			for f, field := range terms {
				if field[term] {
					scores[f][i]++
				}
			}
		}
	}
	chosen := make([]bool, len(sections))
	for _, score := range scores {
		best := 0
		for i := range score {
			if score[i] > score[best] {
				best = i
			}
		}
		chosen[best] = true
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
	elsewhere = make([]bool, len(terms))
	for f, score := range scores {
		for i := 1; i < len(score); i++ {
			elsewhere[f] = elsewhere[f] || (score[i] > 0 && !chosen[i])
		}
	}
	return sections[0] + sb.String(), elsewhere
}
