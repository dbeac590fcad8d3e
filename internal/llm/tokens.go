package llm

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lower-cased word tokens (letters/digits runs).
// It is the shared lexical unit for token counting, BM25 indexing, and the
// Sim's text analysis, so context-window math is consistent system-wide.
func Tokenize(text string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// CountTokens approximates the model tokenizer: one token per word plus a
// small overhead for punctuation-heavy text (~4 chars/token floor, like BPE
// on prose).
func CountTokens(text string) int {
	// The number of tokens Tokenize would return, without building them.
	words := 0
	inWord := false
	for _, r := range text {
		isWord := unicode.IsLetter(r) || unicode.IsDigit(r)
		if isWord && !inWord {
			words++
		}
		inWord = isWord
	}
	byLen := len(text) / 6
	if byLen > words {
		return byLen
	}
	return words
}

// TruncateTokens returns the prefix of text containing at most n tokens.
// This models hard context-window truncation: everything beyond the window
// is invisible to the model.
func TruncateTokens(text string, n int) string {
	if n <= 0 {
		return ""
	}
	count := 0
	inWord := false
	for i, r := range text {
		isWord := unicode.IsLetter(r) || unicode.IsDigit(r)
		if isWord && !inWord {
			count++
			if count > n {
				return text[:i]
			}
		}
		inWord = isWord
	}
	return text
}
