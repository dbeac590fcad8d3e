package docmodel

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleDoc() *Document {
	d := New("doc-1")
	d.Title = "Aviation Incident Report"
	d.AddElement(&Element{Type: Title, Text: "Aviation Incident Report", Page: 1})
	d.AddElement(&Element{Type: Text, Text: "The pilot reported a loss of engine power.", Page: 1})
	sec := New("doc-1-s1")
	sec.AddElement(&Element{Type: SectionHeader, Text: "Probable Cause", Page: 2})
	sec.AddElement(&Element{Type: Text, Text: "Fuel contamination.", Page: 2})
	sec.AddElement(&Element{
		Type: Table, Page: 3,
		Table: &TableData{NumRows: 1, NumCols: 2, Cells: []TableCell{
			{Row: 0, Col: 0, Text: "Registration"}, {Row: 0, Col: 1, Text: "N220SW"},
		}},
	})
	sec.AddElement(&Element{Type: Picture, Page: 3, Image: &ImageData{Format: "png", Summary: "wreckage photo"}})
	d.AddChild(sec)
	d.SetProperty("us_state", "AK")
	return d
}

func TestWalkOrder(t *testing.T) {
	d := sampleDoc()
	var ids []string
	d.Walk(func(n *Document) bool {
		ids = append(ids, n.ID)
		return true
	})
	if len(ids) != 2 || ids[0] != "doc-1" || ids[1] != "doc-1-s1" {
		t.Errorf("Walk order = %v", ids)
	}
	// Early stop.
	count := 0
	d.Walk(func(n *Document) bool { count++; return false })
	if count != 1 {
		t.Errorf("Walk early-stop visited %d nodes", count)
	}
}

func TestAllElementsAndTypes(t *testing.T) {
	d := sampleDoc()
	if got := len(d.AllElements()); got != 6 {
		t.Fatalf("AllElements = %d, want 6", got)
	}
	if got := len(d.ElementsOfType(Table)); got != 1 {
		t.Errorf("tables = %d, want 1", got)
	}
	if got := len(d.ElementsOfType(Text)); got != 2 {
		t.Errorf("texts = %d, want 2", got)
	}
}

func TestTextContent(t *testing.T) {
	txt := sampleDoc().TextContent()
	for _, want := range []string{"loss of engine power", "Probable Cause", "N220SW", "wreckage photo"} {
		if !strings.Contains(txt, want) {
			t.Errorf("TextContent missing %q:\n%s", want, txt)
		}
	}
}

// Sections cuts at each Section-header, across child documents, and joined
// in order renders TextContent minus the page furniture.
func TestSections(t *testing.T) {
	d := sampleDoc()
	d.Text = "own text"
	d.Elements = append([]*Element{{Type: PageHeader, Text: "NTSB — Final Report"}}, d.Elements...)
	d.Children[0].AddElement(&Element{Type: PageFooter, Text: "Page 3 of 3"})
	d.Children[0].AddElement(&Element{Type: SectionHeader, Text: "Administrative Information"})
	d.Children[0].AddElement(&Element{Type: Text, Text: "Docket closed."})

	got := d.Sections()
	want := []string{
		"own text\nAviation Incident Report\nThe pilot reported a loss of engine power.\n",
		"Probable Cause\nFuel contamination.\n| Registration | N220SW |\n| --- | --- |\n[image: wreckage photo]\n",
		"Administrative Information\nDocket closed.\n",
	}
	if len(got) != len(want) {
		t.Fatalf("Sections = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("section %d = %q, want %q", i, got[i], want[i])
		}
	}
	text := d.TextContent()
	for _, furniture := range []string{"NTSB — Final Report\n", "Page 3 of 3\n"} {
		if !strings.Contains(text, furniture) {
			t.Fatalf("TextContent lost %q", furniture)
		}
		text = strings.Replace(text, furniture, "", 1)
	}
	if joined := strings.Join(got, ""); joined != text {
		t.Errorf("sections joined:\n%q\nTextContent minus page furniture:\n%q", joined, text)
	}

	if plain := New("p"); len(plain.Sections()) != 1 || plain.Sections()[0] != "" {
		t.Errorf("an empty document is one empty preamble, got %q", plain.Sections())
	}
	opens := New("o")
	opens.AddElement(&Element{Type: SectionHeader, Text: "Analysis"})
	if got := opens.Sections(); len(got) != 2 || got[0] != "" || got[1] != "Analysis\n" {
		t.Errorf("a document opening with a header has an empty preamble, got %q", got)
	}
}

// EmbeddingText is a chunk's own text, a parsed document's whole content.
func TestEmbeddingText(t *testing.T) {
	parsed := sampleDoc()
	parsed.Text = ""
	if got := parsed.EmbeddingText(); got != parsed.TextContent() {
		t.Errorf("a document without Text must embed by its TextContent, got %q", got)
	}
	chunk := sampleDoc()
	chunk.Text = "the chunk's own text"
	if got := chunk.EmbeddingText(); got != chunk.Text {
		t.Errorf("a document with Text must embed by it, got %q", got)
	}
}

func TestPageCount(t *testing.T) {
	if got := sampleDoc().PageCount(); got != 3 {
		t.Errorf("PageCount = %d, want 3", got)
	}
}

func TestDocumentCloneIsDeep(t *testing.T) {
	d := sampleDoc()
	d.Binary = []byte{1, 2, 3}
	d.Embedding = []float32{0.5}
	c := d.Clone()
	c.Binary[0] = 9
	c.Embedding[0] = 9
	c.Properties["us_state"] = "CA"
	c.Children[0].Elements[0].Text = "changed"
	if d.Binary[0] != 1 || d.Embedding[0] != 0.5 {
		t.Error("binary/embedding clone not deep")
	}
	if d.Property("us_state") != "AK" {
		t.Error("properties clone not deep")
	}
	if d.Children[0].Elements[0].Text != "Probable Cause" {
		t.Error("children clone not deep")
	}
}

func TestMarshalJSONElidesBinary(t *testing.T) {
	d := sampleDoc()
	d.Binary = make([]byte, 42)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, `"binary_bytes":42`) {
		t.Errorf("binary size not recorded: %s", s)
	}
	if strings.Contains(s, `"Binary"`) {
		t.Errorf("raw binary leaked into JSON")
	}
}

func TestMarkdownRendering(t *testing.T) {
	md := sampleDoc().Markdown()
	for _, want := range []string{"# Aviation Incident Report", "## Probable Cause", "| Registration | N220SW |", "![wreckage photo]()"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

func TestMarkdownDropsPageFurniture(t *testing.T) {
	d := New("d")
	d.AddElement(&Element{Type: PageHeader, Text: "SECRET HEADER"})
	d.AddElement(&Element{Type: Text, Text: "body"})
	md := d.Markdown()
	if strings.Contains(md, "SECRET HEADER") {
		t.Error("page header should be dropped from Markdown")
	}
	if !strings.Contains(md, "body") {
		t.Error("body text missing")
	}
}

func TestSummary(t *testing.T) {
	s := sampleDoc().Summary()
	if !strings.Contains(s, "Aviation Incident Report") || !strings.Contains(s, "elements=6") {
		t.Errorf("Summary = %q", s)
	}
	anon := New("x1")
	if !strings.Contains(anon.Summary(), "x1") {
		t.Errorf("untitled Summary should fall back to ID: %q", anon.Summary())
	}
}
