package llm

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into lower-cased word tokens (letters/digits runs).
// It is the shared lexical unit for token counting, BM25 indexing, and the
// Sim's text analysis, so context-window math is consistent system-wide.
//
// It makes one lowered copy of text, every rune that is not a letter or a
// digit written as a space, and returns substrings of it: a caller that
// keeps a token past the text's own life (a map key, say) should
// strings.Clone it, or the whole copy stays reachable.
func Tokenize(text string) []string {
	var lowered strings.Builder
	lowered.Grow(len(text))
	words := 0
	inWord := false
	for _, r := range text {
		isWord := true
		switch {
		case r < utf8.RuneSelf && asciiWord[r] != 0:
			lowered.WriteByte(asciiWord[r])
		case r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			lowered.WriteRune(unicode.ToLower(r))
		default:
			isWord = false
			lowered.WriteByte(' ')
		}
		if isWord && !inWord {
			words++
		}
		inWord = isWord
	}
	if words == 0 {
		return nil
	}
	s := lowered.String()
	tokens := make([]string, 0, words)
	for s != "" {
		tok, rest, _ := strings.Cut(s, " ")
		if tok != "" {
			tokens = append(tokens, tok)
		}
		s = rest
	}
	return tokens
}

// EachToken calls visit with each token Tokenize returns for text, in
// order, built in buf (grown as needed and returned for the next call), so
// it allocates nothing once buf is large enough. tok is valid only during
// the call; a lookup m[string(tok)] copies nothing.
func EachToken(text string, buf []byte, visit func(tok []byte)) []byte {
	tok := buf[:0]
	for i := 0; i < len(text); {
		if b := text[i]; b < utf8.RuneSelf {
			i++
			if c := asciiWord[b]; c != 0 {
				tok = append(tok, c)
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				tok = utf8.AppendRune(tok, unicode.ToLower(r))
				continue
			}
		}
		if len(tok) > 0 {
			visit(tok)
			tok = tok[:0]
		}
	}
	if len(tok) > 0 {
		visit(tok)
	}
	return tok
}

// asciiWord is how a token spells each ASCII byte: a letter or a digit
// lowered, 0 for a separator.
var asciiWord = func() (t [utf8.RuneSelf]byte) {
	for i := range t {
		switch b := byte(i); {
		case '0' <= b && b <= '9', 'a' <= b && b <= 'z':
			t[i] = b
		case 'A' <= b && b <= 'Z':
			t[i] = b + 'a' - 'A'
		}
	}
	return t
}()

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
