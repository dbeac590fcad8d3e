package llm

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// DisclaimerMarker is the liability boilerplate every NTSB report carries.
// When retrieved chunks containing it dominate a RAG context and the
// question touches cause or fault, the model declines to answer — the
// context-poisoning failure the paper highlights (§7.2).
const DisclaimerMarker = "does not assign fault or blame"

// RefusalText mirrors the paper's reported refusal response.
const RefusalText = "The NTSB does not assign fault or blame for accidents or incidents; " +
	"accident/incident investigations are fact-finding proceedings with no formal issues, " +
	"and are not conducted for the purpose of determining the rights or liabilities of any person. " +
	"I cannot attribute causes from these materials."

var faultTerms = []string{
	"cause", "caused", "causes", "causal", "fault", "blame", "due",
	"problem", "problems", "failure", "why", "reason",
}

// runSummarize implements llmGenerate/llmReduceByKey: combine items under
// an instruction into a terse abstractive summary.
func (s *Sim) runSummarize(prompt string) string {
	instruction := section(prompt, "INSTRUCTION: ")
	items := parseItems(prompt)
	if len(items) == 0 {
		return "No items to summarize."
	}
	var parts []string
	limit := len(items)
	if limit > 12 {
		limit = 12
	}
	for _, it := range items[:limit] {
		if sent := firstSentences(it, 1); sent != "" {
			parts = append(parts, sent)
		}
	}
	head := fmt.Sprintf("Summary of %d items", len(items))
	if instruction != "" {
		head += " (" + instruction + ")"
	}
	return head + ": " + strings.Join(parts, " ")
}

func parseItems(prompt string) []string {
	idx := strings.Index(prompt, "ITEMS:\n")
	if idx < 0 {
		return nil
	}
	var items []string
	for _, line := range strings.Split(prompt[idx+len("ITEMS:\n"):], "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "[") {
			if _, rest, ok := strings.Cut(line, "] "); ok {
				items = append(items, rest)
			}
		}
	}
	return items
}

// runAnswer implements the RAG answer skill over stuffed context. Its
// failure modes are the point: it only sees chunks surviving window
// truncation, attends to at most attendItems of them, refuses on poisoned
// context, miscounts long enumerations, and answers aggregate questions by
// enumerating what it can see.
func (s *Sim) runAnswer(rng *rand.Rand, prompt string) (string, bool, error) {
	question := section(prompt, "QUESTION: ")
	chunks := parseRAGChunks(prompt)
	if len(chunks) == 0 {
		return "I don't have enough context to answer.\nAnswer: unknown", false, nil
	}

	// Context poisoning check runs over everything inside the window: the
	// boilerplate primes the refusal no matter where it sits in context
	// (§7.2: "whenever these text chunks are included in the vector search
	// results fed as context, the final response is effectively poisoned").
	if isFaultAdjacent(question) {
		poisoned := 0
		for _, c := range chunks {
			if strings.Contains(strings.ToLower(c.Text), DisclaimerMarker) {
				poisoned++
			}
		}
		if float64(poisoned) >= refusalRatio*float64(len(chunks)) && poisoned > 0 {
			return RefusalText, true, nil
		}
	}

	// Lost in the middle: aggregate answers (counts, breakdowns,
	// fractions) require global attention over the context and degrade to
	// the leading window of items. Needle-style questions (listing or
	// quoting a few specific matches) are what in-context retrieval is
	// actually good at, so they read everything visible.
	attended := chunks
	if len(attended) > attendItems {
		attended = attended[:attendItems]
	}

	qlow := strings.ToLower(question)
	switch {
	case strings.Contains(qlow, "how many") && strings.Contains(qlow, " by "):
		return answerBreakdown(question, attended), false, nil
	case strings.Contains(qlow, "how many") || strings.HasPrefix(qlow, "count"):
		return answerCount(rng, question, attended), false, nil
	case strings.Contains(qlow, "fraction") || strings.Contains(qlow, "percentage") || strings.Contains(qlow, "percent"):
		return answerFraction(question, attended), false, nil
	case strings.Contains(qlow, "most common") || strings.Contains(qlow, "most frequently") || strings.Contains(qlow, "top "):
		return answerMostCommon(question, attended), false, nil
	case strings.HasPrefix(qlow, "which") || strings.HasPrefix(qlow, "list") || strings.Contains(qlow, "which incidents"):
		return answerList(question, chunks), false, nil
	default:
		return answerLookup(question, chunks), false, nil
	}
}

func isFaultAdjacent(question string) bool {
	q := strings.ToLower(question)
	for _, t := range faultTerms {
		if containsWord(q, t) {
			return true
		}
	}
	return false
}

// matchingDocs returns the distinct doc IDs (in first-seen order) whose
// visible chunks — concatenated per document, since the model can read
// across chunks of the same source — satisfy the question predicate.
func matchingDocs(question string, chunks []RAGChunk) []string {
	var order []string
	byDoc := map[string]*strings.Builder{}
	for _, c := range chunks {
		sb, ok := byDoc[c.DocID]
		if !ok {
			sb = &strings.Builder{}
			byDoc[c.DocID] = sb
			order = append(order, c.DocID)
		}
		sb.WriteString(c.Text)
		sb.WriteString(". ")
	}
	var ids []string
	for _, id := range order {
		if filterMatch(nil, question, byDoc[id].String(), 1) {
			ids = append(ids, id)
		}
	}
	return ids
}

func answerCount(rng *rand.Rand, question string, chunks []RAGChunk) string {
	n := len(matchingDocs(question, chunks))
	// Counting long enumerations inside a stuffed context is unreliable
	// for language models [Liu et al. 2023]: beyond a handful of items the
	// reported tally slips by one or two.
	if n >= 4 && rng != nil {
		switch r := rng.Float64(); {
		case r < 0.35: // exact
		case r < 0.62:
			n--
		case r < 0.80:
			n -= 2
		case r < 0.93:
			n++
		default:
			n -= 3
		}
		if n < 0 {
			n = 0
		}
	}
	return fmt.Sprintf("Based on the provided context I can identify %d matching incident(s).\nAnswer: %d", n, n)
}

var stateWordRe = regexp.MustCompile(`(?i)\b([A-Z][a-z]+(?: [A-Z][a-z]+)?),? (?:[A-Z]{2}\b)?`)

func answerBreakdown(question string, chunks []RAGChunk) string {
	counts := map[string]int{}
	byState := strings.Contains(strings.ToLower(question), "state")
	for _, c := range chunks {
		if !filterMatch(nil, question, c.Text, 1) && !byState {
			continue
		}
		key := ""
		if byState {
			key = StateOfLocation(c.Text)
			if key == "" {
				// Scan capitalized phrases for state names.
				for _, m := range stateWordRe.FindAllStringSubmatch(c.Text, -1) {
					if ab := StateAbbrev(m[1]); ab != "" {
						key = ab
						break
					}
				}
			}
		} else {
			// Best effort: first content token of the chunk acts as a key.
			toks := ContentTokens(c.Text)
			if len(toks) > 0 {
				key = toks[0]
			}
		}
		if key != "" {
			counts[key]++
		}
	}
	if len(counts) == 0 {
		return "The context does not contain a usable breakdown.\nAnswer: unknown"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return "Partial breakdown from visible context.\nAnswer: " + strings.Join(parts, ", ")
}

func answerFraction(question string, chunks []RAGChunk) string {
	ids := matchingDocs(question, chunks)
	total := map[string]bool{}
	for _, c := range chunks {
		total[c.DocID] = true
	}
	if len(total) == 0 {
		return "Answer: unknown"
	}
	frac := float64(len(ids)) / float64(len(total))
	return fmt.Sprintf("Roughly %d of %d visible incidents match.\nAnswer: %.2f", len(ids), len(total), frac)
}

func answerMostCommon(question string, chunks []RAGChunk) string {
	counts := map[string]int{}
	for _, c := range chunks {
		for _, m := range damagePartRe.FindAllStringSubmatch(c.Text, -1) {
			counts[strings.TrimSpace(strings.ToLower(m[1]))]++
		}
	}
	if len(counts) == 0 {
		return "The context does not identify specific items.\nAnswer: unknown"
	}
	best, bestN := "", 0
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic tie-break
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return fmt.Sprintf("The most frequently mentioned is %q (%d mentions).\nAnswer: %s", best, bestN, best)
}

func answerList(question string, chunks []RAGChunk) string {
	ids := matchingDocs(question, chunks)
	if len(ids) == 0 {
		return "No matching incidents appear in the context.\nAnswer: none"
	}
	if len(ids) > 10 {
		ids = ids[:10]
	}
	return "Matching incidents: " + strings.Join(ids, ", ") + "\nAnswer: " + strings.Join(ids, ", ")
}

func answerLookup(question string, chunks []RAGChunk) string {
	toks := ContentTokens(question)
	for _, c := range chunks {
		if sent := sentenceWith(c.Text, toks); sent != "" {
			return fmt.Sprintf("From doc %s: %s\nAnswer: %s", c.DocID, sent, sent)
		}
	}
	return "The context does not address the question.\nAnswer: unknown"
}
