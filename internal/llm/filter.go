package llm

import (
	"math/rand"
	"slices"
	"strings"
	"unicode/utf8"
)

// runFilter implements the yes/no predicate skill behind llmFilter. It
// decomposes the question into concept groups (content token + synonyms)
// and checks whether the concepts co-occur in the document.
//
// The matcher is deliberately recall-biased: a document where all concepts
// appear in one sentence passes outright, and even a single-concept match
// passes with probability filterLeniency. That reproduces the paper's
// observed failure mode — "the LLM filter operation ... tends to pass
// through documents where an engine problem was not indicated" — because
// NTSB-style reports mention engines, weather, and damage in many
// incidental contexts (§7.2, Filter errors).
func (s *Sim) runFilter(rng *rand.Rand, prompt string) string {
	question := section(prompt, "QUESTION: ")
	doc := documentBody(prompt)
	if question == "" || doc == "" {
		return "no"
	}
	// A verdict depends only on the lines that mention the question, so
	// when the prompt names its document the coin is the document's, not
	// the prompt's: sent whole or scoped, the document gets one answer.
	if line := promptDocumentID(prompt); line != "" {
		rng = s.rng(question + "\x00" + line)
	}
	if filterMatch(rng, question, doc, filterLeniency) {
		return "yes"
	}
	return "no"
}

// filterMatch is the shared predicate evaluation (also used by the RAG
// answer skill when screening chunks).
func filterMatch(rng *rand.Rand, question, doc string, leniency float64) bool {
	groups := conceptGroups(question)
	if len(groups) == 0 {
		// Contentless predicate: everything matches.
		return true
	}
	full := strings.ToLower(stripNegatedRows(doc))

	matchedAnywhere := 0
	for _, g := range groups {
		if groupMatches(g, full) {
			matchedAnywhere++
		}
	}
	if matchedAnywhere == 0 {
		return false
	}
	if matchedAnywhere == len(groups) {
		// All concepts present somewhere. Strong signal if they co-occur in
		// one sentence.
		for _, sent := range sentences(full) {
			n := 0
			for _, g := range groups {
				if groupMatches(g, sent) {
					n++
				}
			}
			if n == len(groups) {
				return true
			}
		}
		// Concepts scattered across the document (never co-occurring in a
		// sentence): a weak signal, but the generous filter still passes a
		// meaningful share of these (§7.2).
		return rng != nil && rng.Float64() < leniency*0.4
	}
	// Partial concept coverage: weakest match.
	frac := float64(matchedAnywhere) / float64(len(groups))
	if frac < 0.5 {
		return false
	}
	return rng != nil && rng.Float64() < leniency*frac*0.35
}

// stripNegatedRows removes the lines NegatedRow names, so a predicate
// about fire does not match every report's boilerplate table row. The model
// reads tables; it understands "None": what is left is every line a filter
// question's concept can be in.
func stripNegatedRows(doc string) string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		if !NegatedRow(line) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// NegatedRow reports whether a line is key/value structure whose value is
// an explicit negative ("Aircraft Fire: None", "| Injuries | N/A |"): it
// names a thing to say it is absent, so the model does not read it as a
// mention.
func NegatedRow(line string) bool {
	trimmed := strings.TrimSpace(line)
	value := ""
	switch {
	case strings.HasPrefix(trimmed, "|"):
		if _, cell, ok := strings.Cut(strings.Trim(trimmed, "|"), "|"); ok && !strings.Contains(cell, "|") {
			value = cell
		}
	case strings.Contains(trimmed, ": "):
		_, value, _ = strings.Cut(trimmed, ": ")
	}
	value = strings.TrimSpace(value)
	for i := 0; i < len(value); i++ {
		if value[i] >= utf8.RuneSelf {
			return slices.Contains(negatives, strings.ToLower(value))
		}
	}
	// ASCII: a case-insensitive match is a lowered one, with no copy.
	return slices.ContainsFunc(negatives, func(neg string) bool { return strings.EqualFold(value, neg) })
}

// negatives are the values NegatedRow reads as "absent", lowered.
var negatives = []string{"none", "no", "n/a", "not applicable", "false"}

// conceptGroups splits a predicate question into concept groups: each
// content token plus its synonym expansion. Multi-word proper phrases
// (capitalized sequences like "Piper" or "New York") form their own group.
func conceptGroups(question string) [][]string {
	var groups [][]string
	seen := map[string]bool{}
	for _, tok := range ContentTokens(question) {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		groups = append(groups, Expand(tok))
	}
	return groups
}

func groupMatches(group []string, text string) bool {
	for _, syn := range group {
		if syn == "" {
			continue
		}
		// Morphological fold: a model matches "collisions" against
		// "collision" effortlessly.
		variants := []string{syn}
		if strings.HasSuffix(syn, "s") && !strings.HasSuffix(syn, "ss") && len(syn) > 3 {
			variants = append(variants, syn[:len(syn)-1])
		} else {
			variants = append(variants, syn+"s")
		}
		for _, v := range variants {
			if containsWord(text, v) {
				return true
			}
		}
	}
	return false
}

// containsWord reports whether text contains syn on word boundaries
// (substring match for multi-word synonyms).
func containsWord(text, syn string) bool {
	if strings.ContainsRune(syn, ' ') {
		return strings.Contains(text, syn)
	}
	idx := 0
	for {
		i := strings.Index(text[idx:], syn)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(syn)
		beforeOK := start == 0 || !isWordByte(text[start-1])
		afterOK := end >= len(text) || !isWordByte(text[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}
