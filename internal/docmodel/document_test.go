package docmodel

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
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
	types := map[ElementType]int{}
	for _, e := range d.AllElements() {
		types[e.Type]++
	}
	if types[Table] != 1 || types[Text] != 2 {
		t.Errorf("tables = %d, texts = %d, want 1 and 2", types[Table], types[Text])
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
// in order renders TextContent, which leaves the page furniture out.
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
	if joined, text := strings.Join(got, ""), d.TextContent(); joined != text {
		t.Errorf("sections joined:\n%q\nTextContent:\n%q", joined, text)
	}
	for _, furniture := range []string{"NTSB — Final Report", "Page 3 of 3"} {
		if strings.Contains(d.TextContent(), furniture) {
			t.Errorf("TextContent carries the page furniture %q", furniture)
		}
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

// Lines are TextContent cut into entries: joined they are TextContent, those
// of a section are that section, and page furniture is none of them.
func TestLines(t *testing.T) {
	d := sampleDoc()
	d.Elements = append([]*Element{{Type: PageHeader, Text: "NTSB — Final Report"}}, d.Elements...)
	d.Children[0].AddElement(&Element{Type: SectionHeader, Text: "Administrative Information"})
	d.Children[0].AddElement(&Element{Type: PageFooter, Text: "Page 3 of 3"})
	d.Children[0].AddElement(&Element{Type: Text, Text: ""})
	d.Children[0].AddElement(&Element{Type: Text, Text: "Docket closed."})
	sections := d.Sections()
	if len(sections) != 3 {
		t.Fatalf("fixture has %d sections, want 3: %q", len(sections), sections)
	}
	lines := d.Lines()
	var all strings.Builder
	bySection := make([]string, len(sections))
	for _, l := range lines {
		if l.Text == "" {
			t.Errorf("an empty entry: %+v", l)
		}
		if l.Text == "NTSB — Final Report" || l.Text == "Page 3 of 3" {
			t.Errorf("a page furniture entry: %+v", l)
		}
		all.WriteString(l.Text + "\n")
		bySection[l.Section] += l.Text + "\n"
	}
	if all.String() != d.TextContent() {
		t.Errorf("joined lines:\n%q\nwant TextContent\n%q", all.String(), d.TextContent())
	}
	if !slices.Equal(bySection, sections) {
		t.Errorf("lines by section:\n%q\nwant Sections\n%q", bySection, sections)
	}
	if want := (Line{Text: "Aviation Incident Report"}); lines[0] != want {
		t.Errorf("the title opens the preamble, got %+v, want %+v", lines[0], want)
	}
	if want := (Line{Text: "Docket closed.", Section: 2}); lines[len(lines)-1] != want {
		t.Errorf("the last entry is %+v, want %+v", lines[len(lines)-1], want)
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
	c.SetProperty("us_state", "CA")
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

// viewCases are hand-built documents covering every way an element reaches
// TextContent: each is read through its text view exactly as it reads itself.
func viewCases() map[string]*Document {
	table := &TableData{NumRows: 2, NumCols: 2, Cells: []TableCell{
		{Row: 0, Col: 0, Text: "Registration", Box: BBox{X1: 5, Y1: 5}}, {Row: 0, Col: 1, Text: "N220SW"},
		{Row: 1, Col: 0, Text: "Damage"}, {Row: 1, Col: 1, Text: "Sub|stantial"},
	}}
	every := New("every")
	for _, typ := range AllElementTypes() {
		every.AddElement(&Element{
			Type: typ, Text: "a " + typ.String() + " element", Page: 1 + int(typ),
			Box: BBox{X0: 1, Y0: 2, X1: 30, Y1: 40}, Confidence: 0.9, Properties: Properties(nil).Set("k", typ.String()),
		})
	}
	elems := New("elems")
	elems.Title = "Aviation Incident Report"
	elems.Path = "s3://reports/elems.pdf"
	elems.ParentID = "batch-7"
	elems.Binary = []byte{1, 2, 3}
	elems.Embedding = []float32{0.25, 0.5}
	elems.SetProperty("us_state", "AK")
	elems.SetProperty("nested", map[string]any{"list": []any{"a", 1}})
	for _, e := range []*Element{
		{Type: PageHeader, Text: "NTSB — Final Report", Page: 1},
		{Type: Picture, Text: "ocr under the photo", Image: &ImageData{Format: "png", Width: 4, Height: 3, Summary: "wreckage photo"}},
		{Type: Picture, Text: "caption-like text", Image: &ImageData{Format: "png"}},
		{Type: Picture, Text: "a picture with no raster"},
		{Type: Picture},
		{Type: SectionHeader, Text: "Factual Information", Page: 2},
		{Type: Table, Text: "stale text the cells override", Table: table, Page: 2},
		{Type: Table, Text: "| a table | whose grid was dropped |", Page: 2},
		{Type: Table, Text: "an empty grid renders nothing", Table: &TableData{}},
		{Type: Text, Text: ""},
		{Type: Text, Text: "ends in a newline\n"},
		{Type: Text, Text: "\n"},
		{Type: Text, Image: &ImageData{Summary: "a summary on a non-picture is not shown"}, Text: "plain"},
		{Type: PageFooter, Text: "Page 2 of 2", Page: 2},
	} {
		elems.AddElement(e)
	}
	nested := sampleDoc()
	nested.Text = "own text"
	grandchild := New("doc-1-s1-a")
	grandchild.Text = "a leaf with text and no elements"
	nested.Children[0].AddChild(grandchild)
	nested.Children[0].AddChild(elems.Clone())
	nested.AddChild(nil)
	chunk := New("elems#3")
	chunk.ParentID = "elems"
	chunk.Text = "the chunk's own text"
	chunk.AddElement(&Element{Type: Table, Table: table})
	wide := New("wide")
	for _, e := range []*Element{
		{Type: Text, Text: "a page past what a row holds", Page: 1 << 20},
		{Type: ElementType(300), Text: "a type no class has", Page: -3},
		{Type: PageFooter, Text: "Page 70000", Page: 70000},
		{Type: Picture, Text: "photo", Image: &ImageData{Summary: "wreckage"}, Page: 2},
	} {
		wide.AddElement(e)
	}
	return map[string]*Document{
		"every type": every, "element shapes": elems, "nested": nested, "chunk": chunk, "empty": New("empty"),
		"past a row": wide,
	}
}

// The text view reads as the document does — TextContent, Sections, Lines
// and EmbeddingText byte for byte, element for element — keeps identity,
// properties and tree shape, and carries no layout.
func TestTextViewReadsAsTheDocument(t *testing.T) {
	for name, d := range viewCases() {
		v, text := d.TextView(nil)
		if got, want := v.TextContent(), d.TextContent(); got != want {
			t.Errorf("%s: TextContent\n%q\nwant\n%q", name, got, want)
		}
		if got, want := v.Sections(), d.Sections(); !slices.Equal(got, want) {
			t.Errorf("%s: Sections\n%q\nwant\n%q", name, got, want)
		}
		if got, want := v.Lines(), d.Lines(); !slices.Equal(got, want) {
			t.Errorf("%s: Lines\n%+v\nwant\n%+v", name, got, want)
		}
		if got, want := v.EmbeddingText(), d.EmbeddingText(); got != want {
			t.Errorf("%s: EmbeddingText %q, want %q", name, got, want)
		}
		if got, want := len(v.AllElements()), len(d.AllElements()); got != want {
			t.Errorf("%s: %d elements, want %d", name, got, want)
		}
		if v.PageCount() != d.PageCount() {
			t.Errorf("%s: PageCount %d, want %d", name, v.PageCount(), d.PageCount())
		}
		tree := func(root *Document) (nodes []string) {
			root.Walk(func(n *Document) bool {
				nodes = append(nodes, n.ID+"|"+n.ParentID+"|"+n.Path+"|"+n.Title+"|"+n.Text)
				return true
			})
			return nodes
		}
		if got, want := tree(v), tree(d); !slices.Equal(got, want) {
			t.Errorf("%s: tree %q, want %q", name, got, want)
		}
		v.Walk(func(n *Document) bool {
			if n.Binary != nil {
				t.Errorf("%s: the view of %s keeps the raw binary", name, n.ID)
			}
			return true
		})
		if !v.Properties.Equal(d.Properties) || !slices.Equal(v.Embedding, d.Embedding) {
			t.Errorf("%s: properties or embedding differ", name)
		}
		from, to := d.AllElements(), v.AllElements()
		if len(from) != len(to) {
			t.Fatalf("%s: %d elements, want %d", name, len(to), len(from))
		}
		for i, e := range to {
			if !reflect.DeepEqual(*e, Element{Type: from[i].Type, Page: from[i].Page, Text: e.Text}) {
				t.Errorf("%s: view element %d carries more than type, page and text: %+v", name, i, *e)
			}
		}
		if again, _ := v.TextView(nil); viewDiff(again, v) != "" {
			t.Errorf("%s: the view of a view reads differently: %s", name, viewDiff(again, v))
		}
		if ref, refText := referenceTextView(d); viewDiff(v, ref) != "" || text != refText {
			t.Errorf("%s: the view reads differently from the reference view: %s", name, viewDiff(v, ref))
		}
	}
	var none *Document
	if v, text := none.TextView(nil); v != nil || text != "" {
		t.Error("the view of a nil document is nil")
	}
}

// TextView's string is every element's ChunkText, page furniture last,
// joined by newlines, and each view element's text lies in it (a table's
// trimmed Markdown at the start of its ChunkText), but that of a picture
// with an image: its annotation, or with no summary its Text, is a string
// of its own.
func TestTextViewTextsShareOneString(t *testing.T) {
	for name, d := range viewCases() {
		var body, furniture []string
		for _, e := range d.AllElements() {
			if e.Type.IsFurniture() {
				furniture = append(furniture, ChunkText(e))
			} else {
				body = append(body, ChunkText(e))
			}
		}
		v, text := d.TextView(nil)
		if want := strings.Join(append(body, furniture...), "\n"); text != want {
			t.Errorf("%s: text\n%q\nwant\n%q", name, text, want)
		}
		from := d.AllElements()
		for i, e := range v.AllElements() {
			own := from[i].Type == Picture && from[i].Image != nil
			at := uintptr(unsafe.Pointer(unsafe.StringData(e.Text))) - uintptr(unsafe.Pointer(unsafe.StringData(text)))
			inside := len(e.Text) <= len(text) && at <= uintptr(len(text)-len(e.Text))
			if e.Text != "" && inside == own {
				t.Errorf("%s: element %d (%s, %q) lies in the view's string: %v", name, i, e.Type, e.Text, inside)
			}
		}
	}
}

// The view shares nothing mutable with its source, and prints no layout:
// its JSON has no bbox, confidence, table or image.
func TestTextViewIsIndependentAndPrintsNoLayout(t *testing.T) {
	d := viewCases()["element shapes"]
	v, _ := d.TextView(nil)
	want := v.TextContent()
	d.SetProperty("us_state", "MUTATED")
	nested, _ := d.Properties.Get("nested")
	nested.(map[string]any)["list"].([]any)[0] = "MUTATED"
	d.Embedding[0] = 9
	for _, e := range d.Elements {
		e.Text = "MUTATED"
		if e.Table != nil && len(e.Table.Cells) > 0 {
			e.Table.Cells[0].Text = "MUTATED"
		}
	}
	if v.Property("us_state") != "AK" || v.Embedding[0] != 0.25 || strings.Contains(v.Properties.JSON(), "MUTATED") || v.TextContent() != want {
		t.Error("the view must not share mutable state with its source")
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"bbox"`, `"confidence"`, `"table"`, `"image"`, `"binary_bytes"`} {
		if strings.Contains(string(out), field) {
			t.Errorf("view JSON carries %s: %s", field, out)
		}
	}
	if !strings.Contains(string(out), `{"type":5,"text":"NTSB — Final Report","page":1}`) {
		t.Errorf("a view element prints as type, text and page: %s", out)
	}
	// A parsed element's real box still prints.
	parsed, err := json.Marshal(&Element{Type: Text, Text: "x", Page: 1, Box: BBox{X1: 10, Y1: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(parsed), `"bbox":{"X0":0,"Y0":0,"X1":10,"Y1":10}`) {
		t.Errorf("a real box must still be printed: %s", parsed)
	}
}
