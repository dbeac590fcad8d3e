package docmodel

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestElementTypeString(t *testing.T) {
	cases := map[ElementType]string{
		Caption:       "Caption",
		ListItem:      "List-item",
		PageFooter:    "Page-footer",
		SectionHeader: "Section-header",
		Title:         "Title",
	}
	for et, want := range cases {
		if got := et.String(); got != want {
			t.Errorf("ElementType(%d).String() = %q, want %q", et, got, want)
		}
	}
	if got := ElementType(99).String(); got != "ElementType(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseElementType(t *testing.T) {
	for _, et := range AllElementTypes() {
		got, err := ParseElementType(et.String())
		if err != nil {
			t.Fatalf("ParseElementType(%q): %v", et.String(), err)
		}
		if got != et {
			t.Errorf("ParseElementType(%q) = %v, want %v", et.String(), got, et)
		}
	}
	// Case and separator insensitivity.
	if got, err := ParseElementType("section_header"); err != nil || got != SectionHeader {
		t.Errorf("ParseElementType(section_header) = %v, %v", got, err)
	}
	if got, err := ParseElementType("LIST-ITEM"); err != nil || got != ListItem {
		t.Errorf("ParseElementType(LIST-ITEM) = %v, %v", got, err)
	}
	if _, err := ParseElementType("bogus"); err == nil {
		t.Error("ParseElementType(bogus) should fail")
	}
}

func TestAllElementTypesCount(t *testing.T) {
	if got := len(AllElementTypes()); got != 11 {
		t.Fatalf("DocLayNet has 11 classes, got %d", got)
	}
}

func TestBBoxGeometry(t *testing.T) {
	a := BBox{0, 0, 10, 10}
	b := BBox{5, 5, 15, 15}
	if got := a.Area(); got != 100 {
		t.Errorf("Area = %v, want 100", got)
	}
	inter := a.Intersect(b)
	if inter.Area() != 25 {
		t.Errorf("Intersect area = %v, want 25", inter.Area())
	}
	u := a.Union(b)
	if u != (BBox{0, 0, 15, 15}) {
		t.Errorf("Union = %+v", u)
	}
	iou := a.IoU(b)
	want := 25.0 / 175.0
	if math.Abs(iou-want) > 1e-12 {
		t.Errorf("IoU = %v, want %v", iou, want)
	}
	// Disjoint boxes.
	c := BBox{100, 100, 110, 110}
	if a.IoU(c) != 0 {
		t.Errorf("disjoint IoU should be 0")
	}
	if !a.Contains(5, 5) || a.Contains(10, 10) {
		t.Error("Contains semantics wrong (half-open box expected)")
	}
}

func TestBBoxIoUProperties(t *testing.T) {
	// IoU is symmetric and bounded in [0,1]; IoU(x,x)=1 for non-degenerate x.
	f := func(x0, y0, w1, h1, dx, dy, w2, h2 float64) bool {
		norm := func(v float64) float64 { return math.Mod(math.Abs(v), 100) }
		a := BBox{norm(x0), norm(y0), norm(x0) + norm(w1) + 1, norm(y0) + norm(h1) + 1}
		b := BBox{norm(dx), norm(dy), norm(dx) + norm(w2) + 1, norm(dy) + norm(h2) + 1}
		iou1, iou2 := a.IoU(b), b.IoU(a)
		if math.Abs(iou1-iou2) > 1e-9 {
			return false
		}
		if iou1 < 0 || iou1 > 1+1e-9 {
			return false
		}
		return math.Abs(a.IoU(a)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableDataAccessors(t *testing.T) {
	td := &TableData{
		NumRows: 2, NumCols: 2,
		Cells: []TableCell{
			{Row: 0, Col: 0, Text: "Aircraft", Header: true},
			{Row: 0, Col: 1, Text: "Cessna 172"},
			{Row: 1, Col: 0, Text: "Registration", Header: true},
			{Row: 1, Col: 1, Text: "N12345"},
		},
	}
	if c := td.Cell(1, 1); c == nil || c.Text != "N12345" {
		t.Fatalf("Cell(1,1) = %+v", c)
	}
	if c := td.Cell(5, 5); c != nil {
		t.Fatal("Cell out of range should be nil")
	}
	row := td.Row(0)
	if len(row) != 2 || row[0] != "Aircraft" {
		t.Errorf("Row(0) = %v", row)
	}
	m := td.AsMap()
	if m["Aircraft"] != "Cessna 172" || m["Registration"] != "N12345" {
		t.Errorf("AsMap = %v", m)
	}
	md := td.Markdown()
	if !strings.Contains(md, "| Aircraft | Cessna 172 |") || !strings.Contains(md, "| --- | --- |") {
		t.Errorf("Markdown:\n%s", md)
	}
}

func TestTableMarkdownEscapesPipes(t *testing.T) {
	td := &TableData{NumRows: 1, NumCols: 1, Cells: []TableCell{{Row: 0, Col: 0, Text: "a|b"}}}
	if !strings.Contains(td.Markdown(), `a\|b`) {
		t.Errorf("pipe not escaped: %s", td.Markdown())
	}
}

func TestElementClone(t *testing.T) {
	e := &Element{
		Type: Table, Text: "tbl", Page: 2,
		Properties: Properties{"k": "v"},
		Table:      &TableData{NumRows: 1, NumCols: 1, Cells: []TableCell{{Text: "x"}}},
		Image:      &ImageData{Format: "png", Width: 10, Height: 10},
	}
	c := e.Clone()
	c.Properties["k"] = "changed"
	c.Table.Cells[0].Text = "changed"
	c.Image.Format = "jpg"
	if e.Properties.String("k") != "v" || e.Table.Cells[0].Text != "x" || e.Image.Format != "png" {
		t.Error("Clone is not deep")
	}
	var nilElem *Element
	if nilElem.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
}

// scanMarkdown, scanRow and scanAsMap are the table accessors as they were
// before anchored(): one linear Cell scan per grid position. They are the
// reference the indexed ones must match byte for byte.
func scanMarkdown(t *TableData) string {
	var sb strings.Builder
	for r := 0; r < t.NumRows; r++ {
		sb.WriteString("|")
		for c := 0; c < t.NumCols; c++ {
			text := ""
			if cell := t.Cell(r, c); cell != nil {
				text = strings.ReplaceAll(cell.Text, "|", "\\|")
			}
			sb.WriteString(" " + text + " |")
		}
		sb.WriteString("\n")
		if r == 0 {
			sb.WriteString("|" + strings.Repeat(" --- |", max(t.NumCols, 0)) + "\n")
		}
	}
	return sb.String()
}

func scanRow(t *TableData, r int) []string {
	out := []string{}
	for c := 0; c < t.NumCols; c++ {
		if cell := t.Cell(r, c); cell != nil {
			out = append(out, cell.Text)
		}
	}
	return out
}

func scanAsMap(t *TableData) map[string]string {
	m := map[string]string{}
	if t.NumCols < 2 {
		return m
	}
	for r := 0; r < t.NumRows; r++ {
		key, val := "", ""
		if c := t.Cell(r, 0); c != nil {
			key = strings.TrimSpace(c.Text)
		}
		if c := t.Cell(r, 1); c != nil {
			val = strings.TrimSpace(c.Text)
		}
		if key != "" {
			m[key] = val
		}
	}
	return m
}

// Markdown, Row and AsMap find cells through one index per call; what they
// return is what a Cell scan per position returns, on spanning, ragged and
// duplicate-anchor tables, on cells anchored outside the grid and on
// degenerate grids.
func TestTableAccessorsMatchCellScan(t *testing.T) {
	tables := map[string]*TableData{
		"plain": {NumRows: 2, NumCols: 2, Cells: []TableCell{
			{Row: 0, Col: 0, Text: "Aircraft"}, {Row: 0, Col: 1, Text: "Cessna 172"},
			{Row: 1, Col: 0, Text: " Registration "}, {Row: 1, Col: 1, Text: "N1|2345"},
		}},
		// A header spanning both columns and a cell spanning two rows: the
		// covered positions have no anchor and render empty.
		"spanning": {NumRows: 3, NumCols: 2, Cells: []TableCell{
			{Row: 0, Col: 0, ColSpan: 2, Text: "Pilot Information", Header: true},
			{Row: 1, Col: 0, RowSpan: 2, Text: "Certificate"}, {Row: 1, Col: 1, Text: "Commercial"},
			{Row: 2, Col: 1, Text: "Private"},
		}},
		// Rows of different lengths, a missing key, cells out of reading order.
		"ragged": {NumRows: 4, NumCols: 3, Cells: []TableCell{
			{Row: 2, Col: 1, Text: "late"}, {Row: 0, Col: 0, Text: "k0"},
			{Row: 1, Col: 0, Text: "k1"}, {Row: 1, Col: 1, Text: "v1"}, {Row: 1, Col: 2, Text: "x1"},
			{Row: 3, Col: 0, Text: "   "}, {Row: 3, Col: 1, Text: "orphan"},
		}},
		// Two cells anchored at (0,1) and at (1,0): the first in Cells wins.
		"duplicate": {NumRows: 2, NumCols: 2, Cells: []TableCell{
			{Row: 0, Col: 0, Text: "key"}, {Row: 0, Col: 1, Text: "first"}, {Row: 0, Col: 1, Text: "second"},
			{Row: 1, Col: 0, Text: "winner"}, {Row: 1, Col: 1, Text: "v"}, {Row: 1, Col: 0, Text: "loser"},
		}},
		"outside": {NumRows: 1, NumCols: 2, Cells: []TableCell{
			{Row: -1, Col: 0, Text: "above"}, {Row: 0, Col: 2, Text: "right"}, {Row: 1, Col: 0, Text: "below"},
			{Row: 0, Col: -1, Text: "left"}, {Row: 0, Col: 1, Text: "in"},
		}},
		"no cells":   {NumRows: 2, NumCols: 3},
		"no columns": {NumRows: 2, NumCols: 0, Cells: []TableCell{{Text: "x"}}},
		"no rows":    {NumRows: 0, NumCols: 2, Cells: []TableCell{{Text: "x"}}},
		"empty":      {},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		td := &TableData{NumRows: rng.Intn(6), NumCols: rng.Intn(5)}
		for j := rng.Intn(40); j > 0; j-- {
			td.Cells = append(td.Cells, TableCell{Row: rng.Intn(8) - 1, Col: rng.Intn(7) - 1, Text: fmt.Sprintf(" c%d|%d ", i, j)})
		}
		tables[fmt.Sprintf("random %d", i)] = td
	}
	for name, td := range tables {
		if got, want := td.Markdown(), scanMarkdown(td); got != want {
			t.Errorf("%s: Markdown\n%q\nwant\n%q", name, got, want)
		}
		for r := -1; r <= td.NumRows; r++ {
			if got, want := td.Row(r), scanRow(td, r); !slices.Equal(got, want) || got == nil {
				t.Errorf("%s: Row(%d) = %q, want %q", name, r, got, want)
			}
		}
		if got, want := td.AsMap(), scanAsMap(td); !maps.Equal(got, want) {
			t.Errorf("%s: AsMap = %v, want %v", name, got, want)
		}
	}
	if got := tables["duplicate"].Markdown(); got != "| key | first |\n| --- | --- |\n| winner | v |\n" {
		t.Errorf("first cell anchored at a position must win:\n%s", got)
	}
	if got := tables["spanning"].Markdown(); got != "| Pilot Information |  |\n| --- | --- |\n| Certificate | Commercial |\n|  | Private |\n" {
		t.Errorf("spanned positions render empty:\n%s", got)
	}
}
