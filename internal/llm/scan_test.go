package llm

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The regular expressions the scanners in scan.go replace: each scanner
// must do on any input what its expression does.
var (
	sentenceSplitRe = regexp.MustCompile(`(?s)[^.!?\n]+[.!?]?`)
	kvLineRe        = regexp.MustCompile(`^([A-Z][A-Za-z0-9 /()'&-]{1,40}):\s+(.+)$`)
	causeTailRe     = regexp.MustCompile(`(?i)probable cause[^.:\n]{0,60}:\s*(.{10,600}?)(?:\n|$)`)
	damagePartRe    = regexp.MustCompile(`(?i)damage to (?:the |its )?([a-z][a-z ]{2,40}?)(?:\.|,|;| and | which| during| when| after)`)
)

// referenceDamageParts is damageParts as the expression found them: the
// group of every match.
func referenceDamageParts(text string) []string {
	var out []string
	for _, m := range damagePartRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// referenceSentences is sentences as the expression found them.
func referenceSentences(text string) []string {
	var out []string
	for _, m := range sentenceSplitRe.FindAllString(text, -1) {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// scannerSeeds are inputs every scanner's fuzz target starts from: the
// shapes report text takes, and the edges of each expression — invalid
// UTF-8, runs of . ! ?, lone newlines, folded letters, bounds.
var scannerSeeds = []string{
	"",
	"\n",
	"\n\n.\n",
	"...!!??",
	"Hello. World! Why? Yes",
	"  spaced .  out \n\n lines ",
	"a\xffb. \xe2\x80. \xe2\x80\n\xc5",
	"Location: Denver, CO",
	"Wind Speed:   4 knots",
	"Aircraft Damage: None",
	"Key:\t \r\f",
	"Key: \n",
	"Key:  ",
	"K: v",
	"A" + strings.Repeat("b", 40) + ": value",
	"A" + strings.Repeat("b", 41) + ": value",
	"Pilot (PIC) & Co-Pilot/Crew's: two",
	"Not a key line",
	"| Field | Value |",
	"The NTSB determines the probable cause of this accident to be: the pilot's failure to maintain airspeed.\nNext line.",
	"PROBABLE CAUSE: short\nProbable Cause of it: a statement long enough here",
	"probable cauſe: the long s folds to s under (?i).",
	"probable cause" + strings.Repeat("x", 61) + ": too far away from the label",
	"probable cause" + strings.Repeat("é", 60) + ": sixty runes, two bytes each",
	"probable cause. : a period ends the search",
	"probable cause:" + strings.Repeat(" ", 12) + "\nshort\n",
	"probable cause: \n   xxxxxxxx\n",
	"probable cause: " + strings.Repeat("y", 601),
	"probable cause:\n" + strings.Repeat("z", 20),
	"probable \xffcause: invalid byte inside the label",
	"Substantial damage to the left wing and the fuselage.",
	"DAMAGE TO ITS Nose Gear, damage to the propeller which bent",
	"damage to the pilot. damage to tail during landing; damage to ab.",
	"damage to the ab, damage to x y. damage to \u017fKid \u212aey when",
	"damage to " + strings.Repeat("a", 41) + ".",
	"damage to " + strings.Repeat("b", 40) + ".",
	"damage to the\xffwing, damage to itsy bits after it",
	"damage to damage to the rudder and",
}

// FuzzSentences: the scanner's sentences are the expression's.
func FuzzSentences(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := slices.Collect(sentences(text)), referenceSentences(text); !slices.Equal(got, want) {
			t.Fatalf("sentences(%q) = %q, the expression's %q", text, got, want)
		}
	})
}

// FuzzKVLine: kvLine matches where the expression does, with its groups.
func FuzzKVLine(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		key, value, ok := kvLine(line)
		m := kvLineRe.FindStringSubmatch(line)
		if ok != (m != nil) || ok && (key != m[1] || value != m[2]) {
			t.Fatalf("kvLine(%q) = %q, %q, %v; the expression's %q", line, key, value, ok, m)
		}
	})
}

// FuzzCauseTail: causeTail finds the statement the expression does.
func FuzzCauseTail(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		stmt, ok := causeTail(doc)
		m := causeTailRe.FindStringSubmatch(doc)
		if ok != (m != nil) || ok && stmt != m[1] {
			t.Fatalf("causeTail(%q) = %q, %v; the expression's %q", doc, stmt, ok, m)
		}
	})
}

// FuzzDamageParts: damageParts yields the expression's matches.
func FuzzDamageParts(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := slices.Collect(damageParts(text)), referenceDamageParts(text); !slices.Equal(got, want) {
			t.Fatalf("damageParts(%q) = %q, the expression's %q", text, got, want)
		}
	})
}

// referenceMatchText is matchText as the split, join and strings.ToLower
// it replaced.
func referenceMatchText(doc string) string {
	var kept []string
	for _, line := range strings.Split(doc, "\n") {
		if !NegatedRow(line) {
			kept = append(kept, line)
		}
	}
	return strings.ToLower(strings.Join(kept, "\n"))
}

// FuzzMatchText: matchText is the negated rows dropped, then lowered.
func FuzzMatchText(f *testing.F) {
	for _, s := range scannerSeeds {
		f.Add(s)
	}
	f.Add("| Aircraft Fire | None |\nFIRE İN THE \u212aITCHEN\n\xff\xe2\x80\n")
	f.Fuzz(func(t *testing.T, doc string) {
		if got, want := matchText(doc), referenceMatchText(doc); got != want {
			t.Fatalf("matchText(%q) = %q, the reference's %q", doc, got, want)
		}
	})
}

// referenceFilterMatch is filterMatch as it read before the scanners:
// the concepts looked for in every sentence the expression finds, each
// synonym's forms built as strings.
func referenceFilterMatch(rng *rand.Rand, question, doc string, leniency float64) bool {
	groups := conceptGroups(question)
	if len(groups) == 0 {
		return true
	}
	full := referenceMatchText(doc)
	matches := func(group []string, text string) bool {
		for _, syn := range group {
			if syn == "" {
				continue
			}
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
	matchedAnywhere := 0
	for _, g := range groups {
		if matches(g, full) {
			matchedAnywhere++
		}
	}
	if matchedAnywhere == 0 {
		return false
	}
	if matchedAnywhere == len(groups) {
		for _, sent := range referenceSentences(full) {
			n := 0
			for _, g := range groups {
				if matches(g, sent) {
					n++
				}
			}
			if n == len(groups) {
				return true
			}
		}
		return rng != nil && rng.Float64() < leniency*0.4
	}
	frac := float64(matchedAnywhere) / float64(len(groups))
	if frac < 0.5 {
		return false
	}
	return rng != nil && rng.Float64() < leniency*frac*0.35
}

// FuzzFilterMatch: the filter skill's verdict is the reference's, coin
// included.
func FuzzFilterMatch(f *testing.F) {
	f.Add("Did the engine lose power?", "The engine lost power. A fire broke out.")
	f.Add("Were birds or geese involved in a water landing?", "A flock of geese struck it.\nIt ditched in the lake!")
	f.Add("landing gear collapse?", "The landing gears collapsed on the runway. Gear? Collapse.")
	f.Add("fire", "| Aircraft Fire | None |\nThe fire.engine burned")
	f.Add("\u212aelvin İce", "ICE and frost. \u212aELVIN.\xff \xe2\x80 frost")
	for _, s := range scannerSeeds {
		f.Add("damage to the wing?", s)
	}
	f.Fuzz(func(t *testing.T, question, doc string) {
		got := filterMatch(rand.New(rand.NewSource(7)), question, doc, filterLeniency)
		if want := referenceFilterMatch(rand.New(rand.NewSource(7)), question, doc, filterLeniency); got != want {
			t.Fatalf("filterMatch(%q, %q) = %v, the reference's %v", question, doc, got, want)
		}
	})
}

// corpusQuestions are filter questions checkScanners asks of a document:
// single and several concepts, synonyms, plurals and a multi-word one.
var corpusQuestions = []string{
	"Does the report mention a fire?",
	"Did the engine lose power?",
	"Were birds involved?",
	"Was the landing gear damaged during landing?",
	"Did weather or icing contribute to the accident?",
	"Was the pilot a student on a solo flight?",
}

// checkScanners holds each scanner to its expression, and matchText to
// its reference, over doc, whole and line by line as parseKV reads it.
func checkScanners(doc string) error {
	if got, want := slices.Collect(sentences(doc)), referenceSentences(doc); !slices.Equal(got, want) {
		return fmt.Errorf("sentences = %q, the expression's %q", got, want)
	}
	if got, want := slices.Collect(damageParts(doc)), referenceDamageParts(doc); !slices.Equal(got, want) {
		return fmt.Errorf("damageParts = %q, the expression's %q", got, want)
	}
	if got, want := matchText(doc), referenceMatchText(doc); got != want {
		return fmt.Errorf("matchText = %q, the reference's %q", got, want)
	}
	for _, q := range corpusQuestions {
		got := filterMatch(rand.New(rand.NewSource(7)), q, doc, filterLeniency)
		if want := referenceFilterMatch(rand.New(rand.NewSource(7)), q, doc, filterLeniency); got != want {
			return fmt.Errorf("filterMatch(%q) = %v, the reference's %v", q, got, want)
		}
	}
	stmt, ok := causeTail(doc)
	if m := causeTailRe.FindStringSubmatch(doc); ok != (m != nil) || ok && stmt != m[1] {
		return fmt.Errorf("causeTail = %q, %v; the expression's %q", stmt, ok, m)
	}
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		key, value, ok := kvLine(line)
		if m := kvLineRe.FindStringSubmatch(line); ok != (m != nil) || ok && (key != m[1] || value != m[2]) {
			return fmt.Errorf("kvLine(%q) = %q, %q, %v; the expression's %q", line, key, value, ok, m)
		}
	}
	return nil
}
