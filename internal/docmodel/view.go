package docmodel

import (
	"slices"
	"strings"
)

// viewTable is the elements of one node of a text view (TextView): one
// per element, in reading order, and the strings their texts lie in. A
// table is never written after TextView builds it, so every clone of a view
// shares it.
type viewTable struct {
	// text is the report's one string, the one TextView returns.
	text string
	// own is the view texts that do not lie in text: those of pictures
	// with an image (TextView).
	own []string
	// rows is the elements packed, 12 bytes each and pointer-free, so the
	// collector does not scan them. wide holds them instead, and rows is
	// nil, when some element of the report does not pack.
	rows []viewRow
	wide []viewElem
}

// viewElem is one element of a text view: its type, its page and where its
// view text is: text[start:end], or own[start] when own is set.
type viewElem struct {
	start, end, page int
	typ              ElementType
	own              bool
}

// viewRow is a viewElem packed: a report whose pages, types and text all
// fit keeps its elements so.
type viewRow struct {
	start, end uint32
	page       int16
	typ        uint8
	own        bool
}

// pack is elems as rows, or false when some element does not fit a row.
func pack(elems []viewElem) ([]viewRow, bool) {
	rows := make([]viewRow, len(elems))
	for i, e := range elems {
		r := viewRow{start: uint32(e.start), end: uint32(e.end), page: int16(e.page), typ: uint8(e.typ), own: e.own}
		if r.unpack() != e {
			return nil, false
		}
		rows[i] = r
	}
	return rows, true
}

func (r viewRow) unpack() viewElem {
	return viewElem{start: int(r.start), end: int(r.end), page: int(r.page), typ: ElementType(r.typ), own: r.own}
}

func (t *viewTable) len() int { return len(t.rows) + len(t.wide) }

func (t *viewTable) elem(i int) viewElem {
	if t.wide != nil {
		return t.wide[i]
	}
	return t.rows[i].unpack()
}

func (t *viewTable) textOf(e viewElem) string {
	if e.own {
		return t.own[e.start]
	}
	return t.text[e.start:e.end]
}

// elements is the table as the Elements it stands for: type, page and view
// text each, nothing else set.
func (t *viewTable) elements() []*Element {
	elems := make([]Element, t.len())
	out := make([]*Element, len(elems))
	for i := range elems {
		e := t.elem(i)
		elems[i] = Element{Type: e.typ, Page: e.page, Text: t.textOf(e)}
		out[i] = &elems[i]
	}
	return out
}

// withElements is node d as a document that keeps all its elements in
// Elements: d itself, or, for a node of a text view, a copy whose Elements
// are its table's rows and then its own Elements.
func (d *Document) withElements() *Document {
	if d.table == nil {
		return d
	}
	cp := *d
	cp.Elements, cp.table = append(d.table.elements(), d.Elements...), nil
	return &cp
}

// elementCount is how many elements node d has, its children's aside.
func (d *Document) elementCount() int {
	n := len(d.Elements)
	if d.table != nil {
		n += d.table.len()
	}
	return n
}

// TextView returns a copy of the document that keeps what a query reads and
// drops the layout DocParse produced on the way there: the same ID, parent,
// path, title, text, properties, embedding and children, and of every
// element, page furniture too, its type, its page and the text elementText
// gives (what TextContent shows for an element it shows). Box, Confidence,
// Properties, Table and Image are gone, and so is the raw Binary.
// TextContent, Sections, Lines, EmbeddingText and PageCount of the view
// equal the document's own, and the view of a view reads as it does. This
// is what index.Store keeps; Clone is the copy that keeps everything.
//
// The view's element texts are stored once, in text: the ChunkText of every
// element but page furniture in reading order, joined by newlines, then
// that of the furniture. An element's view text is a slice of its ChunkText
// there (a table's trimmed Markdown is a prefix of its own), except that of
// a picture with an image (its annotation, or its Text when it has no
// summary), which is a string of its own. The texts of the chunks
// docset's MergeChunks cuts from the document are found in text too, and
// index.Store keeps them as slices of it.
//
// A node of the view keeps its elements as one table of 12-byte rows —
// type, page and where the text is; wider ones in the rare report whose
// pages, types or text do not fit — not as Elements: reading them through
// TextContent, Sections, Lines, EmbeddingText and PageCount copies nothing,
// while Walk, AllElements and MarshalJSON build Elements from the table each
// time they are called. The view shares no mutable state with d. Its
// property keys are keys' copies of them (d's own when keys is nil), so the
// views taken with one Keys keep one string per key.
func (d *Document) TextView(keys *Keys) (view *Document, text string) {
	if d == nil {
		return nil, ""
	}
	from := d.AllElements()
	chunks := make([]string, len(from))
	size := 0
	for i, e := range from {
		chunks[i] = ChunkText(e)
		size += len(chunks[i]) + 1
	}
	var sb strings.Builder
	sb.Grow(max(size-1, 0))      // exactly: text keeps sb's whole buffer
	at := make([]int, len(from)) // where chunks[i] starts in text
	written := 0
	for _, furniture := range []bool{false, true} {
		for i, e := range from {
			if e.Type.IsFurniture() == furniture {
				if written > 0 {
					sb.WriteByte('\n')
				}
				written++
				at[i] = sb.Len()
				sb.WriteString(chunks[i])
			}
		}
	}
	text = sb.String()
	table := viewTable{text: text}
	elems := make([]viewElem, len(from))
	for i, e := range from {
		chunk := text[at[i] : at[i]+len(chunks[i])]
		elems[i] = viewElem{page: e.Page, typ: e.Type}
		if t := viewText(e, chunk); strings.HasPrefix(chunk, t) {
			elems[i].start, elems[i].end = at[i], at[i]+len(t)
		} else {
			elems[i].own, elems[i].start = true, len(table.own)
			table.own = append(table.own, t)
		}
	}
	var packed bool
	if table.rows, packed = pack(elems); !packed {
		table.wide = elems
	}
	next := 0
	return d.viewOf(table, keys, &next), text
}

// viewOf is the text view of node d and its descendants, whose elements are
// table's rows from *next on, in reading order.
func (d *Document) viewOf(table viewTable, keys *Keys, next *int) *Document {
	if d == nil {
		return nil
	}
	v := &Document{
		ID:         d.ID,
		ParentID:   d.ParentID,
		Path:       d.Path,
		Title:      d.Title,
		Text:       d.Text,
		Properties: d.Properties.clone(keys),
		Embedding:  slices.Clone(d.Embedding),
	}
	if n := d.elementCount(); n > 0 {
		node := table
		if table.wide != nil {
			node.wide = table.wide[*next : *next+n]
		} else {
			node.rows = table.rows[*next : *next+n]
		}
		*next += n
		v.table = &node
	}
	if d.Children != nil {
		v.Children = make([]*Document, len(d.Children))
		for i, c := range d.Children {
			v.Children[i] = c.viewOf(table, keys, next)
		}
	}
	return v
}
