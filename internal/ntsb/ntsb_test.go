package ntsb

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/rawdoc"
)

func TestGenerateIncidentsDeterministic(t *testing.T) {
	a := GenerateIncidents(100, 42)
	b := GenerateIncidents(100, 42)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("incident %d differs across runs", i)
		}
	}
}

func TestMultiAircraftAccidents(t *testing.T) {
	incs := GenerateIncidents(100, 42)
	if len(incs) <= 100 {
		t.Fatalf("expected multi-aircraft pairs to inflate report count, got %d", len(incs))
	}
	if got := Accidents(incs); got != 100 {
		t.Errorf("accidents = %d, want 100", got)
	}
	// Pairs share accident numbers and are single-engine substantial.
	byAcc := map[string][]Incident{}
	for _, in := range incs {
		byAcc[in.AccidentNumber] = append(byAcc[in.AccidentNumber], in)
	}
	pairs := 0
	for _, group := range byAcc {
		if len(group) == 2 {
			pairs++
			for _, in := range group {
				if in.Cause != CauseMidair || in.Engines != 1 || in.Damage != "Substantial" {
					t.Errorf("pair member %s: cause=%v engines=%d damage=%s", in.ReportID, in.Cause, in.Engines, in.Damage)
				}
				if in.Date.Month() == time.July {
					t.Errorf("pair member %s lands in July (would perturb July questions)", in.ReportID)
				}
			}
		}
	}
	if pairs < 2 {
		t.Errorf("pairs = %d, want >= 2", pairs)
	}
}

func TestExactlyTwoJulyBirdStrikes(t *testing.T) {
	incs := GenerateIncidents(100, 42)
	n := 0
	for _, in := range incs {
		if in.BirdStrike && in.Date.Month() == time.July {
			n++
		}
	}
	if n != 2 {
		t.Errorf("July bird strikes = %d, want exactly 2", n)
	}
}

func TestNoHawaiiIncidents(t *testing.T) {
	for _, in := range GenerateIncidents(150, 7) {
		if in.State == "Hawaii" {
			t.Fatal("corpus must contain no Hawaii incidents")
		}
	}
}

func TestDamageDistributionMostlySubstantial(t *testing.T) {
	incs := GenerateIncidents(100, 42)
	sub := 0
	for _, in := range incs {
		if in.Damage == "Substantial" {
			sub++
		}
	}
	if frac := float64(sub) / float64(len(incs)); frac < 0.85 || frac > 0.99 {
		t.Errorf("substantial fraction %.2f outside the paper's ~0.94 regime", frac)
	}
}

func TestEngineMentionTrapExists(t *testing.T) {
	incs := GenerateIncidents(100, 42)
	mentions := 0
	for _, in := range incs {
		if in.Cause != CauseEngine && in.Cause != CauseFuel && in.EngineMention {
			mentions++
		}
	}
	if mentions < 20 {
		t.Errorf("only %d non-engine reports mention the engine; the filter trap needs more", mentions)
	}
}

func TestGlidersHaveNoEngineCause(t *testing.T) {
	for _, in := range GenerateIncidents(200, 9) {
		if in.Category == "Glider" && (in.Cause == CauseEngine || in.Cause == CauseFuel) {
			t.Fatalf("glider %s has engine/fuel cause", in.ReportID)
		}
	}
}

func TestBuildReportStructure(t *testing.T) {
	incs := GenerateIncidents(10, 42)
	inc := &incs[0]
	doc := BuildReport(inc)
	if len(doc.Pages) < 2 {
		t.Errorf("report has %d pages, want multi-page", len(doc.Pages))
	}
	byType := map[docmodel.ElementType]int{}
	var allText strings.Builder
	for _, r := range doc.Regions {
		byType[r.Type]++
		allText.WriteString(r.Text + "\n")
		if r.Type == docmodel.Table && r.Table != nil {
			for _, c := range r.Table.Cells {
				allText.WriteString(c.Text + "\n")
			}
		}
	}
	for _, et := range []docmodel.ElementType{docmodel.Title, docmodel.SectionHeader, docmodel.Text, docmodel.Table, docmodel.Picture, docmodel.Caption} {
		if byType[et] == 0 {
			t.Errorf("report missing %v regions", et)
		}
	}
	text := allText.String()
	for _, want := range []string{
		inc.AccidentNumber, inc.Registration, inc.Aircraft, inc.Damage,
		inc.City, inc.State, "Probable Cause", "damage to the " + inc.DamagedPart,
		"does not assign fault or blame",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q", want)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	incs := GenerateIncidents(5, 42)
	a := BuildReport(&incs[0])
	b := BuildReport(&incs[0])
	if a.Stats() != b.Stats() {
		t.Errorf("report build not deterministic: %s vs %s", a.Stats(), b.Stats())
	}
}

func TestCorpusBlobsRoundTrip(t *testing.T) {
	c, err := GenerateCorpus(10, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := c.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != len(c.Docs) {
		t.Fatalf("blob count %d != doc count %d", len(blobs), len(c.Docs))
	}
	for id, blob := range blobs {
		d, err := rawdoc.Decode(blob)
		if err != nil {
			t.Fatalf("decode %s: %v", id, err)
		}
		if d.ID != id {
			t.Errorf("blob id mismatch: %s vs %s", d.ID, id)
		}
	}
	// Blobs encodes on several workers; each blob is the bytes a serial
	// Encode of that report gives.
	for _, d := range c.Docs {
		serial, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blobs[d.ID], serial) {
			t.Errorf("%s: Blobs() bytes differ from a serial Encode", d.ID)
		}
	}
	if _, ok := c.GroundTruth(c.Incidents[3].ReportID); !ok {
		t.Error("GroundTruth lookup failed")
	}
	if _, ok := c.GroundTruth("nope"); ok {
		t.Error("GroundTruth should miss unknown id")
	}
}

func TestNarrativeEmbedsCauseSignals(t *testing.T) {
	incs := GenerateIncidents(200, 11)
	checked := map[Cause]bool{}
	for i := range incs {
		inc := &incs[i]
		if checked[inc.Cause] {
			continue
		}
		checked[inc.Cause] = true
		doc := BuildReport(inc)
		var text strings.Builder
		for _, r := range doc.Regions {
			text.WriteString(r.Text + " ")
		}
		s := strings.ToLower(text.String())
		switch inc.Cause {
		case CauseEngine:
			if !strings.Contains(s, "loss of power") {
				t.Errorf("engine narrative missing power-loss language")
			}
		case CauseBird:
			if !strings.Contains(s, "bird") && !strings.Contains(s, "geese") {
				t.Errorf("bird narrative missing bird language")
			}
		case CauseFuel:
			if !strings.Contains(s, "fuel") {
				t.Errorf("fuel narrative missing fuel language")
			}
		case CauseMidair:
			if !strings.Contains(s, "collided with another airplane") {
				t.Errorf("midair narrative missing collision language")
			}
		}
	}
	if len(checked) < 5 {
		t.Errorf("only %d causes exercised; corpus too uniform", len(checked))
	}
}

func TestStateAbbrevHelper(t *testing.T) {
	in := Incident{State: "Kentucky"}
	if in.StateAbbrev() != "KY" {
		t.Errorf("StateAbbrev = %q", in.StateAbbrev())
	}
}
