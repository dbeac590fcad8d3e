package llm

import (
	"encoding/json"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// runExtract implements the extract skill: pull the requested fields out of
// the document text, the way a model reads a report. It works from three
// signal sources, in priority order: (1) key/value structure (markdown
// table rows and "Key: Value" lines), (2) domain sentence patterns, and
// (3) keyword presence for booleans.
func (s *Sim) runExtract(prompt string) string {
	fields := parseFieldSpecs(prompt)
	doc := documentBody(prompt)
	kv := parseKV(doc)
	out := make(map[string]any, len(fields))
	for _, f := range fields {
		v := extractField(f, doc, kv)
		out[f.Name] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// kvPair is one key/value fact found in the document structure.
type kvPair struct {
	key   string   // normalized (lower, space-joined tokens)
	toks  []string // the key's meaningful tokens (keyTokens)
	value string
}

// parseKV mines key/value structure: 2-column markdown table rows and
// "Key: Value" prose lines.
func parseKV(doc string) []kvPair {
	var pairs []kvPair
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "|") {
			cells := splitMarkdownRow(line)
			if len(cells) == 2 && cells[0] != "" && !strings.HasPrefix(cells[0], "---") {
				pairs = append(pairs, newKVPair(cells[0], cells[1]))
			}
			continue
		}
		if key, value, ok := kvLine(line); ok {
			pairs = append(pairs, newKVPair(key, value))
		}
	}
	return pairs
}

func newKVPair(key, value string) kvPair {
	norm := normKey(key)
	return kvPair{key: norm, toks: keyTokens(norm), value: strings.TrimSpace(value)}
}

func splitMarkdownRow(line string) []string {
	line = strings.Trim(line, "|")
	parts := strings.Split(line, "|")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// normKey lower-cases and splits camelCase/snake_case into space-joined
// tokens.
func normKey(k string) string {
	var sb strings.Builder
	runes := []rune(k)
	for i, r := range runes {
		if r >= 'A' && r <= 'Z' && i > 0 && runes[i-1] >= 'a' && runes[i-1] <= 'z' {
			sb.WriteByte(' ')
		}
		switch {
		case r == '_' || r == '-' || r == '/':
			sb.WriteByte(' ')
		default:
			sb.WriteRune(r)
		}
	}
	return strings.Join(strings.Fields(strings.ToLower(sb.String())), " ")
}

// fieldAliasDrop are tokens in field names that carry no matching signal.
var fieldAliasDrop = map[string]bool{
	"us": true, "abbrev": true, "abbreviation": true, "and": true, "of": true,
	"the": true, "name": true, "number": true, "related": true, "involved": true,
}

// keyTokens returns the meaningful tokens of a normalized field/key name.
func keyTokens(norm string) []string {
	var out []string
	for _, t := range strings.Fields(norm) {
		if !fieldAliasDrop[t] {
			out = append(out, t)
		}
	}
	return out
}

// lookupKV finds the best key/value match for the field name: exact
// normalized equality first, then token-subset containment.
func lookupKV(fieldNorm string, kv []kvPair) (string, bool) {
	for _, p := range kv {
		if p.key == fieldNorm {
			return p.value, true
		}
	}
	ft := keyTokens(fieldNorm)
	if len(ft) == 0 {
		return "", false
	}
	best, bestScore := "", 0
	for _, p := range kv {
		pt := p.toks
		score := tokenOverlap(ft, pt)
		// Require full containment of one side in the other.
		if score == len(ft) || (len(pt) > 0 && score == len(pt)) {
			if score > bestScore {
				best, bestScore = p.value, score
			}
		}
	}
	return best, bestScore > 0
}

// tokenOverlap counts the tokens of a that b holds.
func tokenOverlap(a, b []string) int {
	n := 0
	for _, t := range a {
		if slices.Contains(b, t) {
			n++
		}
	}
	return n
}

var (
	engineNumRe = regexp.MustCompile(`(?i)\b(single|twin|one|two|three|four|1|2|3|4)[- ]engine`)
	numberRe    = regexp.MustCompile(`-?\d+(\.\d+)?`)
)

// extractField resolves one field from the document.
func extractField(f FieldSpec, doc string, kv []kvPair) any {
	norm := normKey(f.Name)
	toks := keyTokens(norm)

	// Probable cause: quote the cause statement.
	if strings.Contains(norm, "cause") {
		if stmt, ok := causeTail(doc); ok {
			return coerce(firstSentences(strings.TrimSpace(stmt), 2), f.Type, doc, toks)
		}
		// No colon-anchored statement: take the first substantive sentence
		// discussing the cause (section headers are too short to qualify).
		for sent := range sentences(doc) {
			if len(sent) >= 50 && strings.Contains(strings.ToLower(sent), "cause") {
				return coerce(sent, f.Type, doc, toks)
			}
		}
		return nil
	}

	// State fields: derive from an explicit state key or the location.
	if strings.Contains(norm, "state") {
		if v, ok := lookupKV(norm, kv); ok {
			if ab := StateAbbrev(v); ab != "" {
				return ab
			}
			if ab := StateOfLocation(v); ab != "" {
				return ab
			}
		}
		for _, key := range []string{"location", "city state", "site"} {
			if v, ok := lookupKV(key, kv); ok {
				if ab := StateOfLocation(v); ab != "" {
					return ab
				}
			}
		}
		// Last resort: scan prose for "City, State" patterns.
		if ab := StateOfLocation(firstSentences(doc, 4)); ab != "" {
			return ab
		}
		return nil
	}

	// Damaged-part style fields: sentence pattern over the narrative.
	if (strings.Contains(norm, "part") && strings.Contains(norm, "damage")) ||
		norm == "damaged part" || norm == "part damaged" {
		for part := range damageParts(doc) {
			return strings.TrimSpace(part)
		}
		return nil
	}

	// Engine-count style fields.
	if strings.Contains(norm, "engine") && (f.Type == "int" || strings.Contains(norm, "count")) {
		if v, ok := lookupKV(norm, kv); ok {
			return coerce(v, f.Type, doc, toks)
		}
		if m := engineNumRe.FindStringSubmatch(doc); m != nil {
			return wordToNumber(strings.ToLower(m[1]))
		}
		return nil
	}

	// Structured lookup.
	if v, ok := lookupKV(norm, kv); ok {
		return coerce(v, f.Type, doc, toks)
	}

	// Booleans fall back to keyword presence (recall-biased, like a model
	// answering "is this weather related?").
	if f.Type == "bool" {
		return keywordPresent(doc, toks)
	}

	// Final fallback: first sentence mentioning the field's tokens.
	if sent := sentenceWith(doc, toks); sent != "" && f.Type == "string" {
		return sent
	}
	return nil
}

// coerce converts a raw extracted string to the requested type.
func coerce(v, typ, doc string, fieldToks []string) any {
	v = strings.TrimSpace(v)
	if v == "" {
		return nil
	}
	switch typ {
	case "int":
		if m := numberRe.FindString(v); m != "" {
			if n, err := strconv.Atoi(strings.SplitN(m, ".", 2)[0]); err == nil {
				return n
			}
		}
		if n := wordToNumber(strings.ToLower(v)); n != nil {
			return n
		}
		return nil
	case "float":
		if m := numberRe.FindString(v); m != "" {
			if f, err := strconv.ParseFloat(m, 64); err == nil {
				return f
			}
		}
		return nil
	case "bool":
		low := strings.ToLower(v)
		switch {
		case strings.HasPrefix(low, "yes") || low == "true":
			return true
		case strings.HasPrefix(low, "no") || low == "false":
			return false
		default:
			return keywordPresent(doc, fieldToks)
		}
	default:
		return v
	}
}

func wordToNumber(w string) any {
	switch w {
	case "zero":
		return 0
	case "one", "single":
		return 1
	case "two", "twin":
		return 2
	case "three":
		return 3
	case "four":
		return 4
	case "1", "2", "3", "4":
		n, _ := strconv.Atoi(w)
		return n
	}
	return nil
}

// keywordPresent scans the document's prose for any synonym-expanded field
// token. Table rows are excluded: "Wind Speed | 4 knots" appears in every
// report and says nothing about whether the incident was weather-related.
func keywordPresent(doc string, fieldToks []string) bool {
	var prose []string
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			prose = append(prose, line)
		}
	}
	docToks := make(map[string]bool)
	for _, t := range Tokenize(strings.Join(prose, "\n")) {
		docToks[t] = true
	}
	for _, ft := range fieldToks {
		for _, syn := range Expand(ft) {
			for _, w := range strings.Fields(syn) {
				if docToks[w] {
					return true
				}
			}
		}
	}
	return false
}

// firstSentences returns the first n sentences of text joined together.
func firstSentences(text string, n int) string {
	var sb strings.Builder
	for sent := range sentences(text) {
		if n == 0 {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(sent)
		n--
	}
	return sb.String()
}

// sentenceWith returns the first sentence containing any of the tokens.
func sentenceWith(text string, toks []string) string {
	if len(toks) == 0 {
		return ""
	}
	for sent := range sentences(text) {
		low := strings.ToLower(sent)
		for _, t := range toks {
			if strings.Contains(low, t) {
				return sent
			}
		}
	}
	return ""
}
