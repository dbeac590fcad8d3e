package llm

import (
	"iter"
	"strings"
	"unicode/utf8"
)

// The Sim's text scanners. Each does what a regular expression once did,
// byte for byte on any input, in one pass without backtracking; the
// expression stays in scan_test.go as the reference its fuzz target holds
// the scanner to.

// sentenceEnd marks the bytes that end a sentence unit: . ! ? and newline.
var sentenceEnd = [256]bool{'.': true, '!': true, '?': true, '\n': true}

// sentences yields text's rough sentence units, trimmed, skipping the
// empty ones: each maximal run of bytes that end no sentence, with the
// . ! or ? that ends it (the reference: `(?s)[^.!?\n]+[.!?]?`). The
// delimiters are ASCII, so a run never splits a rune.
func sentences(text string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for i := 0; i < len(text); {
			if sentenceEnd[text[i]] {
				i++
				continue
			}
			j := i + 1
			for j < len(text) && !sentenceEnd[text[j]] {
				j++
			}
			if j < len(text) && text[j] != '\n' {
				j++
			}
			if sent := strings.TrimSpace(text[i:j]); sent != "" && !yield(sent) {
				return
			}
			i = j
		}
	}
}

// reSpace is a regular expression's \s: [\t\n\f\r ].
func reSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\f' || b == '\r'
}

// keyByte is the class a key line's key continues with: [A-Za-z0-9 /()'&-].
func keyByte(b byte) bool {
	switch {
	case 'a' <= b && b <= 'z', 'A' <= b && b <= 'Z', '0' <= b && b <= '9':
		return true
	}
	return strings.IndexByte(" /()'&-", b) >= 0
}

// kvLine reads a "Key: Value" line: a capital, 1 to 40 more key bytes, a
// colon, whitespace, then the value to the end of the line (the reference:
// `^([A-Z][A-Za-z0-9 /()'&-]{1,40}):\s+(.+)$`). key and value are the
// expression's two groups; value is not trimmed.
func kvLine(line string) (key, value string, ok bool) {
	if line == "" || line[0] < 'A' || line[0] > 'Z' {
		return "", "", false
	}
	k := 1
	for k < len(line) && keyByte(line[k]) {
		if k++; k > 41 {
			return "", "", false
		}
	}
	if k < 2 || k == len(line) || line[k] != ':' {
		return "", "", false
	}
	rest := line[k+1:]
	w := 0
	for w < len(rest) && reSpace(rest[w]) {
		w++
	}
	switch {
	case w == 0:
		return "", "", false
	case w < len(rest):
		// The whitespace is greedy; the value may not hold a newline.
		if strings.IndexByte(rest[w:], '\n') >= 0 {
			return "", "", false
		}
		return line[:k], rest[w:], true
	case len(rest) >= 2 && rest[len(rest)-1] != '\n':
		// All whitespace: the value takes back its last byte.
		return line[:k], rest[len(rest)-1:], true
	}
	return "", "", false
}

// causeLabel is the phrase a formal cause statement follows.
const causeLabel = "probable cause"

// causeTail finds the formal cause statement: the text after the colon in
// "... determines the probable cause of this accident to be: <statement>",
// to the end of its line (the reference:
// `(?i)probable cause[^.:\n]{0,60}:\s*(.{10,600}?)(?:\n|$)`). The statement
// is the expression's group, untrimmed.
func causeTail(doc string) (string, bool) {
	for i := 0; i < len(doc); i++ {
		if c := doc[i]; c != 'p' && c != 'P' {
			continue
		}
		if n := foldedPrefix(doc[i:], causeLabel); n > 0 {
			if tail, ok := causeTailAfter(doc[i+n:]); ok {
				return tail, true
			}
		}
	}
	return "", false
}

// foldedPrefix returns how many bytes of s spell the lower-case ASCII
// phrase under a regular expression's case folding (?i), or 0 if they do
// not: a letter matches either case, s also the long s (U+017F) and k
// also the Kelvin sign (U+212A), the two non-ASCII folds of a letter.
func foldedPrefix(s, phrase string) int {
	n := 0
	for i := 0; i < len(phrase); i++ {
		c := phrase[i]
		switch {
		case n < len(s) && (s[n] == c || 'a' <= c && c <= 'z' && s[n] == c-'a'+'A'):
			n++
		case c == 's' && strings.HasPrefix(s[n:], "\u017f"):
			n += len("\u017f")
		case c == 'k' && strings.HasPrefix(s[n:], "\u212a"):
			n += len("\u212a")
		default:
			return 0
		}
	}
	return n
}

// causeTailAfter matches what follows the label: up to 60 characters
// that are not . : or a newline, the colon, whitespace, then a statement
// of 10 to 600 characters running to the end of its line. The whitespace
// is greedy, so the statement starts as late as it can and still fit.
func causeTailAfter(s string) (string, bool) {
	colon := -1
	for i, runes := 0, 0; i < len(s) && runes <= 60; runes++ {
		if b := s[i]; b == '.' || b == '\n' {
			return "", false
		} else if b == ':' {
			colon = i
			break
		}
		_, size := utf8.DecodeRuneInString(s[i:])
		i += size
	}
	if colon < 0 {
		return "", false
	}
	after := s[colon+1:]
	w := 0
	for w < len(after) && reSpace(after[w]) {
		w++
	}
	for p := w; p >= 0; p-- {
		stmt := after[p:]
		if nl := strings.IndexByte(stmt, '\n'); nl >= 0 {
			stmt = stmt[:nl]
		}
		if n := utf8.RuneCountInString(stmt); n >= 10 && n <= 600 {
			return stmt, true
		}
	}
	return "", false
}

// damageParts yields the part named after each "damage to" in text, in
// order: "damage to", an optional "the " or "its ", then the part — a
// letter and 2 to 40 more letters or spaces, as few as reach an end: . , ;
// " and", " which", " during", " when" or " after" (the reference, every
// match's group: `(?i)damage to (?:the |its )?([a-z][a-z ]{2,40}?)(?:\.|,|;| and | which| during| when| after)`).
// Case is folded throughout, so a part's letters are any of [A-Za-z] and
// their two non-ASCII folds.
func damageParts(text string) iter.Seq[string] {
	return func(yield func(string) bool) {
		for i := 0; i < len(text); i++ {
			if c := text[i]; c != 'd' && c != 'D' {
				continue
			}
			n := foldedPrefix(text[i:], "damage to ")
			if n == 0 {
				continue
			}
			start := i + n
			part, end, ok := "", 0, false
			for _, article := range []string{"the ", "its "} {
				if m := foldedPrefix(text[start:], article); m > 0 {
					part, end, ok = damagePartAt(text, start+m)
					break
				}
			}
			if !ok {
				part, end, ok = damagePartAt(text, start)
			}
			if ok {
				if !yield(part) {
					return
				}
				i = end - 1
			}
		}
	}
}

// damagePartAt matches a part starting at text[start:], returning it and
// the end of its terminator.
func damagePartAt(text string, start int) (part string, end int, ok bool) {
	r, size := utf8.DecodeRuneInString(text[start:])
	if !partLetter(r) {
		return "", 0, false
	}
	p := start + size
	for more := 1; more <= 40; more++ {
		r, size := utf8.DecodeRuneInString(text[p:])
		if r != ' ' && !partLetter(r) {
			return "", 0, false
		}
		p += size
		if more < 2 {
			continue
		}
		if t := partEnd(text[p:]); t > 0 {
			return text[start:p], p + t, true
		}
	}
	return "", 0, false
}

// partLetter is [a-z] under case folding: either case of an ASCII letter,
// the long s and the Kelvin sign.
func partLetter(r rune) bool {
	return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || r == '\u017f' || r == '\u212a'
}

// partEnds are the words that end a part, after a space.
var partEnds = []string{" and ", " which", " during", " when", " after"}

// partEnd returns the length of the part's end at the start of s, or 0.
func partEnd(s string) int {
	if s == "" {
		return 0
	}
	switch s[0] {
	case '.', ',', ';':
		return 1
	case ' ':
		for _, w := range partEnds {
			if n := foldedPrefix(s, w); n > 0 {
				return n
			}
		}
	}
	return 0
}
