package docset

import (
	"context"
	"strings"
	"sync"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/llm"
)

// promptLog records every prompt sent through it.
type promptLog struct {
	llm.Client
	mu      sync.Mutex
	prompts []string
}

func (p *promptLog) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	p.mu.Lock()
	p.prompts = append(p.prompts, req.Prompt)
	p.mu.Unlock()
	return p.Client.Complete(ctx, req)
}

// sectioned builds a report: a Location table as preamble, page furniture,
// then one Section-header and one paragraph per (header, text) pair.
func sectioned(id string, sections ...string) *docmodel.Document {
	d := ntsbishDoc(id, "Mesa, Arizona", "Aviation Investigation Final Report")
	d.AddElement(&docmodel.Element{Type: docmodel.PageFooter, Text: "Page 1 of 2"})
	for i := 0; i+1 < len(sections); i += 2 {
		d.AddElement(&docmodel.Element{Type: docmodel.SectionHeader, Text: sections[i]})
		d.AddElement(&docmodel.Element{Type: docmodel.Text, Text: sections[i+1]})
	}
	return d
}

var (
	damagedPart    = llm.FieldSpec{Name: "damaged_part", Type: "string"}
	weatherRelated = llm.FieldSpec{Name: "weather_related", Type: "bool", Description: "whether weather contributed"}
)

// TestScopedExtract: what a scoped extract sends the model, document shape
// by document shape, and how the stage accounts for it.
func TestScopedExtract(t *testing.T) {
	const (
		weather  = "Meteorological Information\nWind was gusting to 30 knots with icing in the clouds.\n"
		analysis = "Analysis\nThe hard landing resulted in damage to the nose gear. The damaged strut was replaced.\n"
	)
	report := func(id string) *docmodel.Document {
		return sectioned(id, "Meteorological Information", "Wind was gusting to 30 knots with icing in the clouds.",
			"Analysis", "The hard landing resulted in damage to the nose gear. The damaged strut was replaced.",
			"Administrative Information", "The docket was closed in March.")
	}
	for _, tc := range []struct {
		name   string
		doc    *docmodel.Document
		fields []llm.FieldSpec
		// bodies are the document texts of the prompts sent, in order; "" is
		// the document's whole TextContent.
		bodies          []string
		part            string
		kept, escalated int64
	}{
		{
			name:   "one field, its one section",
			doc:    report("A"),
			fields: []llm.FieldSpec{damagedPart},
			bodies: []string{analysis},
			part:   "nose gear", kept: 1,
		},
		{
			name:   "two fields, both sections in reading order",
			doc:    report("B"),
			fields: []llm.FieldSpec{damagedPart, weatherRelated},
			bodies: []string{weather + analysis},
			part:   "nose gear", kept: 1,
		},
		{
			name: "a null from the scope asks the whole document",
			doc: sectioned("C", "Analysis", "The cowling was damaged and the spinner was damaged.",
				"Wreckage", "Examination found damage to the rudder."),
			fields: []llm.FieldSpec{damagedPart},
			bodies: []string{"Analysis\nThe cowling was damaged and the spinner was damaged.\n", ""},
			part:   "rudder", escalated: 1,
		},
		{
			name: "a tie goes to the earlier section",
			doc: sectioned("T", "Wreckage", "Examination found damage to the rudder.",
				"Analysis", "The impact resulted in damage to the cowling."),
			fields: []llm.FieldSpec{damagedPart},
			bodies: []string{"Wreckage\nExamination found damage to the rudder.\n"},
			part:   "rudder", kept: 1,
		},
		{
			name:   "a null the rest of the document cannot fill stands",
			doc:    report("N"),
			fields: []llm.FieldSpec{damagedPart, {Name: "bird_species", Type: "string"}},
			bodies: []string{analysis},
			part:   "nose gear", kept: 1,
		},
		{
			name:   "no Section-header: the whole document at once",
			doc:    ntsbishDoc("D", "Mesa, Arizona", "The landing resulted in damage to the left wing."),
			fields: []llm.FieldSpec{damagedPart},
			bodies: []string{""},
			part:   "left wing",
		},
		{
			name:   "no section holds a term: the whole document at once",
			doc:    sectioned("E", "History of Flight", "The airplane departed at noon.", "Administrative Information", "The docket was closed in March."),
			fields: []llm.FieldSpec{damagedPart},
			bodies: []string{""},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &promptLog{Client: llm.NewSim(1)}
			ec := NewContext(WithLLM(log))
			whole := tc.doc.TextContent()
			out, trace, err := FromDocuments(ec, []*docmodel.Document{tc.doc}).LLMExtractScoped(tc.fields).Execute(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(log.prompts) != len(tc.bodies) {
				t.Fatalf("sent %d prompts, want %d:\n%s", len(log.prompts), len(tc.bodies), strings.Join(log.prompts, "\n---\n"))
			}
			preamble := tc.doc.Sections()[0]
			for i, body := range tc.bodies {
				want := llm.ExtractPrompt(tc.fields, whole)
				if body != "" {
					want = llm.ExtractPrompt(tc.fields, preamble+body)
				}
				if log.prompts[i] != want {
					t.Errorf("prompt %d:\n got: %q\nwant: %q", i, log.prompts[i], want)
				}
			}
			if got := out[0].Property("damaged_part"); got != tc.part {
				t.Errorf("damaged_part = %q, want %q", got, tc.part)
			}
			nt := trace.Nodes[len(trace.Nodes)-1]
			if nt.ProxyKept != tc.kept || nt.Escalations != tc.escalated || nt.LLMCalls != int64(len(tc.bodies)) {
				t.Errorf("trace %q: %d answered from the scope, %d asked again, %d calls; want %d, %d, %d",
					nt.Name, nt.ProxyKept, nt.Escalations, nt.LLMCalls, tc.kept, tc.escalated, len(tc.bodies))
			}
		})
	}
}
