package docmodel

import (
	"strings"
	"testing"
	"unsafe"
)

// fuzzDocument builds a document tree from shape, one byte per decision,
// its texts taken from words (split at '|'): elements of every type (and,
// rarely, of none), page furniture, tables with grids and without,
// pictures with a summary, with an empty one and with no image, empty
// texts, pages past what a row holds, node texts and child nodes.
func fuzzDocument(shape []byte, words string) *Document {
	pool := append(strings.Split(words, "|"), "", "\n", "ends in a newline\n", "| a | b |", "[image: x]")
	next := func() byte {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return b
	}
	word := func() string { return pool[int(next())%len(pool)] }
	var node func(id string, depth int) *Document
	node = func(id string, depth int) *Document {
		d := New(id)
		if next()%3 == 0 {
			d.Text = word()
		}
		for range int(next() % 8) {
			e := &Element{Type: ElementType(next() % byte(NumElementTypes)), Text: word(), Page: int(next() % 5)}
			switch k := next(); {
			case k == 255:
				e.Type = ElementType(1000 + int(next()))
			case k == 254:
				e.Page = 1<<20 + int(next())
			case k == 253:
				e.Page = -int(next())
			case k%4 == 0:
				e.Type = PageFooter + ElementType(k/4%2) // or PageHeader
			}
			switch next() % 6 {
			case 0:
				e.Type = Picture
				e.Image = &ImageData{Format: "png", Summary: word()}
			case 1:
				e.Type = Picture
				e.Image = &ImageData{Format: "png"}
			case 2:
				rows, cols := int(next()%3), int(next()%3)
				e.Type, e.Table = Table, &TableData{NumRows: rows, NumCols: cols}
				for r := range rows {
					for c := range cols {
						e.Table.Cells = append(e.Table.Cells, TableCell{Row: r, Col: c, Text: word()})
					}
				}
			case 3:
				e.Image = &ImageData{Summary: word()} // on a non-picture, not shown
			}
			d.AddElement(e)
		}
		if depth < 3 {
			for i := range int(next() % 3) {
				if next()%5 == 0 {
					d.AddChild(nil)
				} else {
					d.AddChild(node(id+"-"+string(rune('a'+i)), depth+1))
				}
			}
		}
		return d
	}
	return node("doc", 0)
}

// FuzzTextView: the view TextView builds of any document reads as the
// reference view does, byte for byte, and lays out the same string; so does
// its clone, and the view of the view reads as the view.
func FuzzTextView(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{0, 7, 9, 1, 2, 6, 0, 0, 3, 5, 1, 1, 2, 8, 2, 2, 2, 2, 1, 3, 4, 0, 1, 2}, "alpha|beta gamma|delta\n")
	f.Add([]byte{1, 5, 9, 2, 1, 255, 7, 0, 4, 3, 254, 9, 1, 2, 253, 4, 5, 1, 2, 1, 3, 0, 2, 4, 2, 2, 1}, "| pipe | cell |")
	f.Add([]byte{3, 6, 7, 9, 3, 4, 2, 6, 1, 0, 3, 1, 1, 8, 4, 4, 6, 2, 2, 0, 2, 1, 7, 1, 1, 3, 0, 9, 2}, "Page 1 of 2|NTSB|Probable Cause")
	f.Fuzz(func(t *testing.T, shape []byte, words string) {
		d := fuzzDocument(shape, words)
		v, text := d.TextView(nil)
		ref, refText := referenceTextView(d)
		if text != refText {
			t.Fatalf("text\n%q\nreference\n%q", text, refText)
		}
		if diff := viewDiff(v, ref); diff != "" {
			t.Fatalf("the view reads differently from the reference: %s", diff)
		}
		if diff := viewDiff(v.Clone(), ref); diff != "" {
			t.Fatalf("the view's clone reads differently from the reference: %s", diff)
		}
		if again, _ := v.TextView(nil); viewDiff(again, v) != "" {
			t.Fatalf("the view of the view reads differently: %s", viewDiff(again, v))
		}
	})
}

// A clone of a view shares its table and string, and reads as the view; an
// element added to a node of the clone comes after the table's, everywhere.
func TestViewCloneSharesTable(t *testing.T) {
	v, _ := viewCases()["nested"].TextView(nil)
	c := v.Clone()
	if c.table != v.table || c.Children[0].table != v.Children[0].table {
		t.Error("the clone of a view copies its table")
	}
	if diff := viewDiff(c, v); diff != "" {
		t.Errorf("the clone reads differently: %s", diff)
	}
	c.AddElement(&Element{Type: Text, Text: "added", Page: 9})
	all := c.AllElements()
	if n := len(v.AllElements()) + 1; len(all) != n || all[v.table.len()].Text != "added" {
		t.Errorf("after AddElement: %d elements, want %d, the added one after the table's", len(all), n)
	}
	if !strings.Contains(c.TextContent(), "added\n") || c.PageCount() != 9 || len(c.Lines()) != len(v.Lines())+1 {
		t.Error("an added element must read after the table's")
	}
	if strings.Contains(v.TextContent(), "added") {
		t.Error("adding to the clone changed the view")
	}
}

// A report keeps its elements packed in 12-byte rows when every page, type
// and text offset fits one, and at full width when one does not.
func TestViewPacksRowsThatFit(t *testing.T) {
	if size := unsafe.Sizeof(viewRow{}); size != 12 {
		t.Errorf("a row is %d bytes, want 12", size)
	}
	packed, _ := viewCases()["element shapes"].TextView(nil)
	if packed.table.rows == nil || packed.table.wide != nil {
		t.Error("a report whose elements fit rows is not kept as rows")
	}
	wide, _ := viewCases()["past a row"].TextView(nil)
	if wide.table.rows != nil || len(wide.table.wide) != 4 {
		t.Error("a report with an element past a row is not kept at full width")
	}
}
