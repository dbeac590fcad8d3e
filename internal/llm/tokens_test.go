package llm

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// tokenizeRunes is Tokenize as the rune-by-rune loop it replaced: the
// reference every token must equal byte for byte.
func tokenizeRunes(text string) []string {
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

var tokenizeCases = []string{
	"",
	"   ",
	"The Engine LOST power at 1,200 ft; N123AB landed.",
	"| Aircraft Fire | None |\n| Wind Speed | 4 knots |",
	"naïve Café ÉCOLE İstanbul Ⱥ straße ΣΊΣΥΦΟΣ",
	"mixed\tsep\x00ara tors—and ① ⅰ Ⓐ digits ٣٤ ",
	"bad utf8 \xff\xfe inside\xc3",
	"trailing word",
}

func TestTokenizeMatchesRuneLoop(t *testing.T) {
	for _, text := range tokenizeCases {
		if got, want := Tokenize(text), tokenizeRunes(text); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, want %q", text, got, want)
		}
		if got, want := eachToken(text), tokenizeRunes(text); !reflect.DeepEqual(got, want) {
			t.Errorf("EachToken(%q) visits %q, want %q", text, got, want)
		}
		if got, want := CountTokens(text), countTokensRunes(text); got != want {
			t.Errorf("CountTokens(%q) = %d, want %d", text, got, want)
		}
	}
}

// countTokensRunes is CountTokens over the rune loop's tokens: one per
// word, or one per six bytes of punctuation-heavy text.
func countTokensRunes(text string) int { return max(len(tokenizeRunes(text)), len(text)/6) }

// eachToken collects what EachToken visits, through a buffer too small for
// most tokens, so growing it is exercised.
func eachToken(text string) []string {
	var tokens []string
	EachToken(text, make([]byte, 0, 2), func(tok []byte) {
		tokens = append(tokens, string(tok))
	})
	return tokens
}

func FuzzTokenize(f *testing.F) {
	for _, text := range tokenizeCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		want := tokenizeRunes(text)
		if got := Tokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
		}
		if got := eachToken(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("EachToken(%q) visits %q, want %q", text, got, want)
		}
		if got, want := CountTokens(text), countTokensRunes(text); got != want {
			t.Fatalf("CountTokens(%q) = %d, want %d", text, got, want)
		}
	})
}

// Tokenize allocates the lowered copy and the token slice, nothing per
// token.
func TestTokenizeAllocations(t *testing.T) {
	text := strings.Repeat("The engine lost power on climb-out; the pilot landed. ", 40)
	if n := testing.AllocsPerRun(20, func() { Tokenize(text) }); n > 2 {
		t.Errorf("Tokenize made %v allocations, want at most 2", n)
	}
	buf := make([]byte, 0, 64)
	count := 0
	if n := testing.AllocsPerRun(20, func() { buf = EachToken(text, buf, func([]byte) { count++ }) }); n > 0 {
		t.Errorf("EachToken made %v allocations with a large enough buffer, want 0", n)
	}
}

// BenchmarkTokenize tokenizes a report-like text — prose, a table, and
// the em dashes and degree signs that keep it from being ASCII — with
// Tokenize and with the rune loop it replaced.
func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("CEN24LA100 — Page 2\n| Wind Direction | 210° |\nThe Engine lost power on climb-out; the pilot landed in a field.\n", 25)
	for _, bc := range []struct {
		name string
		fn   func(string) []string
	}{{"Tokenize", Tokenize}, {"runeLoop", tokenizeRunes}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				bc.fn(text)
			}
		})
	}
}
