package llm

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const ntsbLikeDoc = `Aviation Investigation Final Report
| Location | Gilbertsville, Kentucky |
| Accident Number | CEN23FA095 |
| Date & Time | June 28, 2024 19:02 |
| Aircraft | Piper PA-38-112 |
| Aircraft Damage | Substantial |
| Registration | N220SW |
| Injuries | 3 Serious |
| Engines | 1 Reciprocating |
Analysis
The pilot reported that during cruise flight the single-engine airplane experienced a
partial loss of engine power. The airplane descended into trees, resulting in
substantial damage to the left wing. Examination revealed water in the fuel tank.
Probable Cause and Findings
The probable cause of this accident was: The pilot's failure to remove all water from the fuel tank, which resulted in fuel contamination and a partial loss of engine power.
The NTSB does not assign fault or blame for an accident or incident.`

func completeText(t *testing.T, sim *Sim, prompt string) string {
	t.Helper()
	resp, err := sim.Complete(context.Background(), Request{Prompt: prompt})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Text
}

func TestExtractSkillStructuredFields(t *testing.T) {
	sim := NewSim(1)
	fields := []FieldSpec{
		{Name: "us_state", Type: "string"},
		{Name: "aircraft", Type: "string"},
		{Name: "registration", Type: "string"},
		{Name: "aircraftDamage", Type: "string"},
		{Name: "probable_cause", Type: "string"},
		{Name: "weather_related", Type: "bool"},
		{Name: "number_of_engines", Type: "int"},
	}
	out := completeText(t, sim, ExtractPrompt(fields, ntsbLikeDoc))
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("extract output is not JSON: %v\n%s", err, out)
	}
	if got["us_state"] != "KY" {
		t.Errorf("us_state = %v, want KY", got["us_state"])
	}
	if got["aircraft"] != "Piper PA-38-112" {
		t.Errorf("aircraft = %v", got["aircraft"])
	}
	if got["registration"] != "N220SW" {
		t.Errorf("registration = %v", got["registration"])
	}
	if got["aircraftDamage"] != "Substantial" {
		t.Errorf("aircraftDamage = %v", got["aircraftDamage"])
	}
	cause, _ := got["probable_cause"].(string)
	if !strings.Contains(cause, "water") || !strings.Contains(cause, "fuel") {
		t.Errorf("probable_cause = %q", cause)
	}
	if got["weather_related"] != false {
		t.Errorf("weather_related = %v, want false (no weather terms)", got["weather_related"])
	}
	if n, ok := got["number_of_engines"].(float64); !ok || n != 1 {
		t.Errorf("number_of_engines = %v", got["number_of_engines"])
	}
}

func TestExtractDamagedPart(t *testing.T) {
	sim := NewSim(1)
	out := completeText(t, sim, ExtractPrompt([]FieldSpec{{Name: "damaged_part", Type: "string"}}, ntsbLikeDoc))
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	if got["damaged_part"] != "left wing" {
		t.Errorf("damaged_part = %v, want left wing", got["damaged_part"])
	}
}

func TestExtractMissingFieldIsNull(t *testing.T) {
	sim := NewSim(1)
	out := completeText(t, sim, ExtractPrompt([]FieldSpec{{Name: "operator_certificate", Type: "string"}}, "Nothing relevant here."))
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	if got["operator_certificate"] != nil {
		t.Errorf("missing field should be null, got %v", got["operator_certificate"])
	}
}

func TestFilterSkillPositive(t *testing.T) {
	sim := NewSim(1)
	out := completeText(t, sim, FilterPrompt("Does the document indicate engine problems?", "", ntsbLikeDoc))
	if out != "yes" {
		t.Errorf("engine-problem doc should pass filter, got %q", out)
	}
}

func TestFilterSkillNegative(t *testing.T) {
	sim := NewSim(1)
	doc := "The glider landed long and overran the runway into a fence. No mechanical issues with the airframe."
	out := completeText(t, sim, FilterPrompt("Does the document mention birds?", "", doc))
	if out != "no" {
		t.Errorf("no birds mentioned, filter said %q", out)
	}
}

func TestFilterSkillGenerousOnIncidentalMentions(t *testing.T) {
	// A report that mentions the engine incidentally (ruled out as a cause)
	// still tends to pass an "engine problems" filter — the §7.2 failure.
	doc := `The pilot lost directional control during landing in gusting crosswinds.
The airplane veered off the runway. Examination of the engine revealed no anomalies,
and there was no evidence of any pre-impact failure.`
	passes := 0
	for seed := int64(0); seed < 20; seed++ {
		sim := NewSim(seed)
		if completeText(t, sim, FilterPrompt("Was the incident due to engine problems?", "", doc)) == "yes" {
			passes++
		}
	}
	if passes == 0 {
		t.Error("the recall-biased filter should sometimes pass incidental engine mentions")
	}
}

func TestSummarizeSkill(t *testing.T) {
	sim := NewSim(1)
	out := completeText(t, sim, SummarizePrompt("summarize the causes", []string{
		"Fuel exhaustion led to a forced landing. More detail here.",
		"Carburetor icing caused power loss.",
	}))
	if !strings.Contains(out, "Fuel exhaustion") || !strings.Contains(out, "Carburetor icing") {
		t.Errorf("summary missing item leads: %s", out)
	}
	if !strings.Contains(out, "2 items") {
		t.Errorf("summary should report item count: %s", out)
	}
}

func TestAnswerSkillCount(t *testing.T) {
	sim := NewSim(1)
	chunks := []RAGChunk{
		{DocID: "A1", Text: "The airplane sustained substantial damage to the fuselage."},
		{DocID: "A1", Text: "Weather was clear."},
		{DocID: "B2", Text: "The helicopter sustained substantial damage during the hard landing."},
		{DocID: "C3", Text: "The airplane was not damaged."},
	}
	resp, err := sim.Complete(context.Background(), Request{Prompt: RAGPrompt("How many incidents involved substantial damage?", chunks)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Answer: ") {
		t.Fatalf("no Answer line: %s", resp.Text)
	}
	// A1 and B2 match on "substantial damage"; C3 matches "damaged" via
	// synonym expansion — the model's generous counting is itself realistic,
	// so accept 2 or 3 but not 0 or 4+.
	ans := answerLine(resp.Text)
	if ans != "2" && ans != "3" {
		t.Errorf("count answer = %q", ans)
	}
}

func TestAnswerSkillRefusalOnPoisonedContext(t *testing.T) {
	sim := NewSim(1)
	disclaimer := "The NTSB does not assign fault or blame for an accident or incident."
	chunks := []RAGChunk{
		{DocID: "A1", Text: disclaimer},
		{DocID: "B2", Text: disclaimer},
		{DocID: "C3", Text: "The engine lost power due to fuel starvation."},
	}
	resp, err := sim.Complete(context.Background(), Request{Prompt: RAGPrompt("How many incidents were due to engine problems?", chunks)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Refusal {
		t.Errorf("poisoned fault-adjacent question should refuse, got: %s", resp.Text)
	}
}

func TestAnswerSkillNoRefusalOnNeutralQuestion(t *testing.T) {
	sim := NewSim(1)
	disclaimer := "The NTSB does not assign fault or blame for an accident or incident."
	chunks := []RAGChunk{
		{DocID: "A1", Text: disclaimer + " The flight departed Hilo, Hawaii."},
	}
	resp, err := sim.Complete(context.Background(), Request{Prompt: RAGPrompt("How many incidents were there in Hawaii?", chunks)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Refusal {
		t.Error("neutral question should not refuse")
	}
}

func TestAnswerSkillZeroCount(t *testing.T) {
	sim := NewSim(1)
	chunks := []RAGChunk{
		{DocID: "A1", Text: "The flight departed Dallas, Texas in the morning."},
	}
	resp, _ := sim.Complete(context.Background(), Request{Prompt: RAGPrompt("How many incidents were there in Hawaii?", chunks)})
	if got := answerLine(resp.Text); got != "0" {
		t.Errorf("Hawaii count should be 0, got %q (%s)", got, resp.Text)
	}
}

func TestAnswerSkillList(t *testing.T) {
	sim := NewSim(1)
	chunks := []RAGChunk{
		{DocID: "A1", Text: "On July 4 the airplane struck a flock of geese after takeoff."},
		{DocID: "B2", Text: "The airplane collided with terrain in dense fog."},
		{DocID: "C3", Text: "During July cruise flight a bird penetrated the windshield."},
	}
	resp, _ := sim.Complete(context.Background(), Request{Prompt: RAGPrompt("Which incidents occurred in July involving birds?", chunks)})
	ans := answerLine(resp.Text)
	if !strings.Contains(ans, "A1") || !strings.Contains(ans, "C3") {
		t.Errorf("list answer missing expected docs: %q", ans)
	}
	if strings.Contains(ans, "B2") {
		t.Errorf("list answer includes non-matching doc: %q", ans)
	}
}

func TestAnswerSkillAttendLimit(t *testing.T) {
	var chunks []RAGChunk
	for i := 0; i < 2*attendItems; i++ {
		chunks = append(chunks, RAGChunk{DocID: fmt.Sprintf("D%02d", i), Text: "substantial damage to the wing"})
	}
	resp, _ := NewSim(1).Complete(context.Background(), Request{Prompt: RAGPrompt("How many incidents involved substantial damage?", chunks)})
	// 60 distinct docs, but only the first 30 chunks are attended; the
	// counting-slip noise then perturbs the tally by at most a few.
	got := answerLine(resp.Text)
	if got == "" {
		t.Fatalf("no Answer line: %s", resp.Text)
	}
	n := 0
	if _, err := fmt.Sscanf(got, "%d", &n); err != nil {
		t.Fatalf("non-numeric count %q", got)
	}
	if n < attendItems-3 || n > attendItems+1 {
		t.Errorf("attend-limited count = %d, want within slip range of %d", n, attendItems)
	}
}

// answerLine extracts the value after the final "Answer:" marker.
func answerLine(text string) string {
	idx := strings.LastIndex(text, "Answer:")
	if idx < 0 {
		return ""
	}
	return strings.TrimSpace(text[idx+len("Answer:"):])
}

func TestParseKV(t *testing.T) {
	pairs := parseKV("| Aircraft | Cessna 172 |\n| --- | --- |\nLocation: Mesa, Arizona\nnot a kv line")
	if len(pairs) != 2 {
		t.Fatalf("parseKV found %d pairs: %+v", len(pairs), pairs)
	}
	if pairs[0].key != "aircraft" || pairs[1].key != "location" {
		t.Errorf("keys = %q, %q", pairs[0].key, pairs[1].key)
	}
}

func TestNormKey(t *testing.T) {
	cases := map[string]string{
		"aircraftDamage":  "aircraft damage",
		"us_state_abbrev": "us state abbrev",
		"Date & Time":     "date & time",
		"lowestCeiling":   "lowest ceiling",
	}
	for in, want := range cases {
		if got := normKey(in); got != want {
			t.Errorf("normKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestContainsWord(t *testing.T) {
	if !containsWord("the engine failed", "engine") {
		t.Error("word should match")
	}
	if containsWord("disengaged autopilot", "engage") {
		t.Error("substring inside word should not match")
	}
	if !containsWord("pre-impact failure noted", "failure") {
		t.Error("hyphenated context should match")
	}
	if !containsWord("struck a flock of geese", "flock of geese") {
		t.Error("multi-word synonym should substring-match")
	}
}

// TestFilterVerdictIsTheDocuments: with the DOCUMENT-ID line, a filter
// verdict is one per (question, document) — the same for the document sent
// whole, cut to the lines that mention the question, and packed with
// another question — and the leniency coin that settles it does not move
// with the prompt's length; without the line, the coin is the prompt's.
func TestFilterVerdictIsTheDocuments(t *testing.T) {
	ctx := context.Background()
	const question = "Was the incident due to engine problems?"
	// The concepts never share a sentence: the coin decides.
	scoped := "Examination of the engine revealed nothing unusual.\nThe pilot reported a problem with the radio."
	whole := "Aviation Investigation Final Report\n" + scoped + "\nThe docket was closed in March.\nInspectors recorded the weather."
	reply := func(sim *Sim, prompt string) string {
		resp, err := sim.Complete(ctx, Request{Prompt: prompt})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Text
	}
	yes, movedWithoutID := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		sim := NewSim(seed)
		id := fmt.Sprintf("N%03d", seed)
		want := reply(sim, FilterPrompt(question, id, whole))
		if got := reply(sim, FilterPrompt(question, id, scoped)); got != want {
			t.Errorf("seed %d: %q scoped, %q whole", seed, got, want)
		}
		packed := reply(sim, packFilterPrompt([]string{"Does the report mention birds?", question}, id, whole))
		if lines := strings.Split(packed, "\n"); len(lines) != 2 || lines[1] != want {
			t.Errorf("seed %d: packed reply %q, solo %q", seed, packed, want)
		}
		if want == "yes" {
			yes++
		}
		if reply(sim, FilterPrompt(question, "", whole)) != reply(sim, FilterPrompt(question, "", scoped)) {
			movedWithoutID++
		}
	}
	if yes == 0 || yes == 40 {
		t.Errorf("%d of 40 seeds said yes: the coin settled nothing", yes)
	}
	if movedWithoutID == 0 {
		t.Error("without the DOCUMENT-ID line no verdict moved with the prompt: the per-prompt coin is not exercised")
	}
}
