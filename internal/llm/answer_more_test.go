package llm

import (
	"context"
	"strings"
	"testing"
)

func ragComplete(t *testing.T, question string, chunks []RAGChunk) Response {
	t.Helper()
	sim := NewSim(1)
	resp, err := sim.Complete(context.Background(), Request{Prompt: RAGPrompt(question, chunks)})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAnswerSkillBreakdownByState(t *testing.T) {
	chunks := []RAGChunk{
		{DocID: "A1", Text: "The accident occurred near Fresno, California during landing."},
		{DocID: "B2", Text: "The accident occurred near Mesa, Arizona during takeoff."},
		{DocID: "C3", Text: "The accident occurred near Redding, California in cruise."},
	}
	resp := ragComplete(t, "How many incidents were there by state?", chunks)
	ans := answerLine(resp.Text)
	if !strings.Contains(ans, "CA=2") || !strings.Contains(ans, "AZ=1") {
		t.Errorf("breakdown answer = %q", ans)
	}
}

func TestAnswerSkillBreakdownNoKeys(t *testing.T) {
	chunks := []RAGChunk{{DocID: "A1", Text: "no location words here"}}
	resp := ragComplete(t, "How many incidents were there by state?", chunks)
	if answerLine(resp.Text) != "unknown" {
		t.Errorf("keyless breakdown should be unknown: %q", answerLine(resp.Text))
	}
}

func TestAnswerSkillFraction(t *testing.T) {
	chunks := []RAGChunk{
		{DocID: "A1", Text: "The airplane sustained substantial damage."},
		{DocID: "B2", Text: "The airplane landed without damage or incident."},
	}
	resp := ragComplete(t, "What fraction of incidents involved substantial damage?", chunks)
	ans := answerLine(resp.Text)
	if ans == "" || ans == "unknown" {
		t.Errorf("fraction answer = %q (%s)", ans, resp.Text)
	}
}

func TestAnswerSkillMostCommon(t *testing.T) {
	chunks := []RAGChunk{
		{DocID: "A1", Text: "resulting in substantial damage to the left wing."},
		{DocID: "B2", Text: "resulting in substantial damage to the left wing."},
		{DocID: "C3", Text: "resulting in substantial damage to the fuselage."},
	}
	resp := ragComplete(t, "What was the most commonly damaged part?", chunks)
	if got := answerLine(resp.Text); got != "left wing" {
		t.Errorf("most common = %q", got)
	}
	// No extractable parts -> unknown.
	resp2 := ragComplete(t, "What was the most commonly damaged part?", []RAGChunk{{DocID: "X", Text: "nothing here"}})
	if got := answerLine(resp2.Text); got != "unknown" {
		t.Errorf("no parts should be unknown: %q", got)
	}
}

func TestAnswerSkillLookup(t *testing.T) {
	chunks := []RAGChunk{
		{DocID: "A1", Text: "The registration of the accident airplane was N220SW."},
	}
	resp := ragComplete(t, "What was the registration of the accident airplane?", chunks)
	if !strings.Contains(resp.Text, "N220SW") {
		t.Errorf("lookup failed: %s", resp.Text)
	}
	// No matching sentence -> unknown.
	resp2 := ragComplete(t, "What was the cargo manifest?", []RAGChunk{{DocID: "X", Text: "unrelated text"}})
	if got := answerLine(resp2.Text); got != "unknown" {
		t.Errorf("unanswerable lookup = %q", got)
	}
}

func TestAnswerSkillEmptyContext(t *testing.T) {
	resp := ragComplete(t, "How many incidents were there?", nil)
	if got := answerLine(resp.Text); got != "unknown" {
		t.Errorf("empty context should be unknown: %q", got)
	}
}

func TestCoerceTypes(t *testing.T) {
	if v := coerce("3 Serious", "int", "", nil); v != 3 {
		t.Errorf("int coercion = %v", v)
	}
	if v := coerce("two", "int", "", nil); v != 2 {
		t.Errorf("word number = %v", v)
	}
	if v := coerce("no numbers", "int", "", nil); v != nil {
		t.Errorf("unparseable int = %v", v)
	}
	if v := coerce("15.8C", "float", "", nil); v != 15.8 {
		t.Errorf("float coercion = %v", v)
	}
	if v := coerce("junk", "float", "", nil); v != nil {
		t.Errorf("unparseable float = %v", v)
	}
	if v := coerce("Yes, definitely", "bool", "", nil); v != true {
		t.Errorf("yes -> true, got %v", v)
	}
	if v := coerce("No", "bool", "", nil); v != false {
		t.Errorf("no -> false, got %v", v)
	}
	if v := coerce("", "string", "", nil); v != nil {
		t.Errorf("empty -> nil, got %v", v)
	}
	if v := coerce("as-is", "string", "", nil); v != "as-is" {
		t.Errorf("string passthrough = %v", v)
	}
}

func TestWordToNumber(t *testing.T) {
	cases := map[string]any{
		"zero": 0, "one": 1, "single": 1, "two": 2, "twin": 2,
		"three": 3, "four": 4, "2": 2,
	}
	for in, want := range cases {
		if got := wordToNumber(in); got != want {
			t.Errorf("wordToNumber(%q) = %v, want %v", in, got, want)
		}
	}
	if wordToNumber("eleven") != nil {
		t.Error("unknown word should be nil")
	}
}

func TestUsageTotalAndClamp(t *testing.T) {
	u := Usage{PromptTokens: 10, CompletionTokens: 5}
	if u.Total() != 15 {
		t.Errorf("Total = %d", u.Total())
	}
}

// negatedRowSplit is NegatedRow as the split-and-lower it replaced: the
// reference every line must agree with.
func negatedRowSplit(line string) bool {
	trimmed := strings.TrimSpace(line)
	value := ""
	switch {
	case strings.HasPrefix(trimmed, "|"):
		cells := strings.Split(strings.Trim(trimmed, "|"), "|")
		if len(cells) == 2 {
			value = strings.TrimSpace(cells[1])
		}
	case strings.Contains(trimmed, ": "):
		_, v, _ := strings.Cut(trimmed, ": ")
		value = strings.TrimSpace(v)
	}
	switch strings.ToLower(value) {
	case "none", "no", "n/a", "not applicable", "false":
		return true
	}
	return false
}

func TestNegatedRowMatchesSplit(t *testing.T) {
	for _, line := range []string{
		"", "None", "| Aircraft Fire | None |", "  | Injuries | N/A |  ", "| Fire | NONE | extra |",
		"| Fire |", "|| none |", "| a | b | none |", "Ground Injuries: n/a", "Fire: Not Applicable",
		"Fire:None", "Fire: none: no", "Fire: False ", "Fire: İnone", "Fire: NOT APPLİCABLE",
		"| Wind | \u212a |", "Fire: No", "Fire: Nope", "Fire: | none |", "| key: none |",
	} {
		if got, want := NegatedRow(line), negatedRowSplit(line); got != want {
			t.Errorf("NegatedRow(%q) = %v, want %v", line, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { NegatedRow("| Aircraft Fire | None |") }); n > 0 {
		t.Errorf("NegatedRow made %v allocations on an ASCII row, want 0", n)
	}
}

func FuzzNegatedRow(f *testing.F) {
	for _, line := range []string{"| Aircraft Fire | None |", "Fire: N/A", "Fire: NOT APPLİCABLE", "| a | b | c |"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if got, want := NegatedRow(line), negatedRowSplit(line); got != want {
			t.Fatalf("NegatedRow(%q) = %v, want %v", line, got, want)
		}
	})
}

func TestStripNegatedRows(t *testing.T) {
	doc := "| Aircraft Fire | None |\n| Aircraft Damage | Substantial |\nGround Injuries: N/A\nNarrative line about fire damage."
	out := matchText(doc)
	if strings.Contains(out, "aircraft fire") {
		t.Error("negated table row should be removed")
	}
	if strings.Contains(out, "ground injuries") {
		t.Error("negated KV line should be removed")
	}
	if !strings.Contains(out, "substantial") || !strings.Contains(out, "narrative line") {
		t.Error("positive content must remain")
	}
}
