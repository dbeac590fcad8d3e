package docmodel

import (
	"fmt"
	"strings"
)

// ElementType is one of the 11 DocLayNet layout classes the segmentation
// model assigns to a region (§4).
type ElementType int

// The 11 DocLayNet classes, in the canonical benchmark order.
const (
	Caption ElementType = iota
	Footnote
	Formula
	ListItem
	PageFooter
	PageHeader
	Picture
	SectionHeader
	Table
	Text
	Title
	numElementTypes
)

// NumElementTypes is the number of layout classes.
const NumElementTypes = int(numElementTypes)

var elementTypeNames = [...]string{
	Caption:       "Caption",
	Footnote:      "Footnote",
	Formula:       "Formula",
	ListItem:      "List-item",
	PageFooter:    "Page-footer",
	PageHeader:    "Page-header",
	Picture:       "Picture",
	SectionHeader: "Section-header",
	Table:         "Table",
	Text:          "Text",
	Title:         "Title",
}

// String returns the canonical DocLayNet class name.
func (t ElementType) String() string {
	if t < 0 || int(t) >= NumElementTypes {
		return fmt.Sprintf("ElementType(%d)", int(t))
	}
	return elementTypeNames[t]
}

// Valid reports whether t is one of the 11 defined classes.
func (t ElementType) Valid() bool { return t >= 0 && int(t) < NumElementTypes }

// ParseElementType resolves a class name (case-insensitive, "-" and "_"
// equivalent) to an ElementType.
func ParseElementType(s string) (ElementType, error) {
	norm := strings.ToLower(strings.ReplaceAll(s, "_", "-"))
	for i, name := range elementTypeNames {
		if strings.ToLower(name) == norm {
			return ElementType(i), nil
		}
	}
	return 0, fmt.Errorf("docmodel: unknown element type %q", s)
}

// AllElementTypes returns the 11 classes in canonical order.
func AllElementTypes() []ElementType {
	out := make([]ElementType, NumElementTypes)
	for i := range out {
		out[i] = ElementType(i)
	}
	return out
}

// BBox is an axis-aligned bounding box in page coordinates (points, origin at
// the top-left corner of the page).
type BBox struct {
	X0, Y0, X1, Y1 float64
}

// Width returns the box width (never negative for a valid box).
func (b BBox) Width() float64 { return b.X1 - b.X0 }

// Height returns the box height.
func (b BBox) Height() float64 { return b.Y1 - b.Y0 }

// Area returns the box area; degenerate boxes have zero area.
func (b BBox) Area() float64 {
	if b.X1 <= b.X0 || b.Y1 <= b.Y0 {
		return 0
	}
	return b.Width() * b.Height()
}

// Empty reports whether the box has zero area.
func (b BBox) Empty() bool { return b.Area() == 0 }

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return BBox{
		X0: min(b.X0, o.X0),
		Y0: min(b.Y0, o.Y0),
		X1: max(b.X1, o.X1),
		Y1: max(b.Y1, o.Y1),
	}
}

// Intersect returns the overlapping region of b and o (possibly empty).
func (b BBox) Intersect(o BBox) BBox {
	r := BBox{
		X0: max(b.X0, o.X0),
		Y0: max(b.Y0, o.Y0),
		X1: min(b.X1, o.X1),
		Y1: min(b.Y1, o.Y1),
	}
	if r.X1 <= r.X0 || r.Y1 <= r.Y0 {
		return BBox{}
	}
	return r
}

// IoU returns the intersection-over-union of b and o, the overlap metric
// COCO evaluation thresholds on.
func (b BBox) IoU(o BBox) float64 {
	inter := b.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Contains reports whether the point (x, y) lies inside the box.
func (b BBox) Contains(x, y float64) bool {
	return x >= b.X0 && x < b.X1 && y >= b.Y0 && y < b.Y1
}

// CenterX returns the horizontal center of the box.
func (b BBox) CenterX() float64 { return (b.X0 + b.X1) / 2 }

// CenterY returns the vertical center of the box.
func (b BBox) CenterY() float64 { return (b.Y0 + b.Y1) / 2 }

// Element is a leaf-level node of a document: a concrete chunk identified as
// one of the 11 layout classes, with its text, page placement, and
// type-specific payload (table structure, image metadata).
type Element struct {
	// Type is the layout class of the chunk.
	Type ElementType `json:"type"`
	// Text is the textual content of the chunk ("" for pictures unless a
	// summary was computed).
	Text string `json:"text,omitempty"`
	// Page is the 1-based page number the chunk appears on.
	Page int `json:"page"`
	// Box is the chunk's bounding box on its page; the zero box of an
	// element that has no layout (index.Store's text view) is not printed.
	Box BBox `json:"bbox,omitzero"`
	// Confidence is the detector's score for this region in [0, 1].
	Confidence float64 `json:"confidence,omitempty"`
	// Properties carries arbitrary extracted metadata for the chunk.
	Properties Properties `json:"properties,omitempty"`
	// Table holds the reconstructed cell grid when Type == Table.
	Table *TableData `json:"table,omitempty"`
	// Image holds raster metadata when Type == Picture.
	Image *ImageData `json:"image,omitempty"`
}

// Clone returns a deep copy of the element.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	cp := *e
	cp.Properties = e.Properties.Clone()
	cp.Table = e.Table.Clone()
	if e.Image != nil {
		img := *e.Image
		cp.Image = &img
	}
	return &cp
}

// ImageData describes a Picture element: format, resolution, and an optional
// model-generated textual summary (§4: "for images we can use a multi-modal
// LLM to compute a textual summary").
type ImageData struct {
	Format  string `json:"format"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Summary string `json:"summary,omitempty"`
}

// TableData is the reconstructed structure of a Table element: a grid of
// cells with row/column extents, as produced by the table-structure model.
type TableData struct {
	NumRows int         `json:"num_rows"`
	NumCols int         `json:"num_cols"`
	Cells   []TableCell `json:"cells"`
}

// TableCell is a single (possibly spanning) cell in a table grid.
type TableCell struct {
	Row     int    `json:"row"`
	Col     int    `json:"col"`
	RowSpan int    `json:"row_span,omitempty"`
	ColSpan int    `json:"col_span,omitempty"`
	Text    string `json:"text"`
	Header  bool   `json:"header,omitempty"`
	Box     BBox   `json:"bbox,omitempty"`
}

// Clone returns a deep copy of the table data.
func (t *TableData) Clone() *TableData {
	if t == nil {
		return nil
	}
	cp := *t
	cp.Cells = make([]TableCell, len(t.Cells))
	copy(cp.Cells, t.Cells)
	return &cp
}

// Cell returns the cell anchored at (row, col), or nil if none.
func (t *TableData) Cell(row, col int) *TableCell {
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.Row == row && c.Col == col {
			return c
		}
	}
	return nil
}

// anchored indexes the cells of rows [first, first+n) by anchor, for one pass
// over them instead of a Cell scan per position: the result holds at
// (r-first)*NumCols+c the first cell anchored at (r, c), as Cell finds it,
// or nil. Cells anchored outside those rows or outside the NumCols columns
// have no slot.
func (t *TableData) anchored(first, n int) []*TableCell {
	if n <= 0 || t.NumCols <= 0 {
		return nil
	}
	idx := make([]*TableCell, n*t.NumCols)
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.Row < first || c.Row >= first+n || c.Col < 0 || c.Col >= t.NumCols {
			continue
		}
		if slot := &idx[(c.Row-first)*t.NumCols+c.Col]; *slot == nil {
			*slot = c
		}
	}
	return idx
}

// Row returns the texts of the cells anchored on row r, ordered by column.
func (t *TableData) Row(r int) []string {
	out := make([]string, 0, t.NumCols)
	for _, cell := range t.anchored(r, 1) {
		if cell != nil {
			out = append(out, cell.Text)
		}
	}
	return out
}

// AsMap interprets a two-column table as key/value pairs, the layout NTSB
// factual-information tables use. Keys are first-column texts.
func (t *TableData) AsMap() map[string]string {
	m := make(map[string]string)
	if t.NumCols < 2 {
		return m
	}
	grid := t.anchored(0, t.NumRows)
	for r := 0; r < t.NumRows; r++ {
		key := ""
		if c := grid[r*t.NumCols]; c != nil {
			key = strings.TrimSpace(c.Text)
		}
		if key == "" {
			continue
		}
		val := ""
		if c := grid[r*t.NumCols+1]; c != nil {
			val = strings.TrimSpace(c.Text)
		}
		m[key] = val
	}
	return m
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t *TableData) Markdown() string {
	var sb strings.Builder
	grid := t.anchored(0, t.NumRows)
	for r := 0; r < t.NumRows; r++ {
		sb.WriteString("|")
		for c := 0; c < t.NumCols; c++ {
			text := ""
			if cell := grid[r*t.NumCols+c]; cell != nil {
				text = strings.ReplaceAll(cell.Text, "|", "\\|")
			}
			sb.WriteString(" " + text + " |")
		}
		sb.WriteString("\n")
		if r == 0 {
			sb.WriteString("|")
			for c := 0; c < t.NumCols; c++ {
				sb.WriteString(" --- |")
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
