package docmodel

import (
	"encoding/json"
	"strings"
)

// Document is a node of the hierarchical document tree (§5.1). A document
// carries content (text or raw binary), an ordered list of child documents,
// and JSON-like properties. Leaf chunks are represented as Elements. A DocSet
// is a collection of Documents; a single value can represent anything from a
// freshly-read raw PDF (one node, binary content) to a fully parsed report
// (sections as internal nodes, elements as leaves) to a chunk of one.
type Document struct {
	// ID uniquely identifies the document within a DocSet.
	ID string `json:"id"`
	// ParentID links a chunk back to its source document, the
	// provenance hook lineage uses ("" for top-level documents).
	ParentID string `json:"parent_id,omitempty"`
	// Path is the source location the document was read from, if any.
	Path string `json:"path,omitempty"`
	// Title is a human-readable name for the document.
	Title string `json:"title,omitempty"`
	// Binary is raw, unparsed content (e.g. a rawdoc blob before
	// partitioning). Parsed documents usually leave it nil.
	Binary []byte `json:"-"`
	// Text is direct textual content for chunk-level documents.
	Text string `json:"text,omitempty"`
	// Elements are the leaf chunks of the document in reading order. A
	// node of a text view (TextView) keeps them in its table instead, and
	// its Elements, nil there, come after the table's: read a node's
	// elements through AllElements or Walk.
	Elements []*Element `json:"elements,omitempty"`
	// Children are nested sub-documents (e.g. sections of a long report).
	Children []*Document `json:"children,omitempty"`
	// Properties is the extracted/enriched metadata for the document.
	Properties Properties `json:"properties,omitempty"`
	// Embedding is the vector for chunk-level documents after embed().
	Embedding []float32 `json:"-"`
	// table holds the elements of a node of a text view (nil otherwise).
	// It is immutable: copies of the node share it.
	table *viewTable
}

// New returns an empty document with the given ID.
func New(id string) *Document { return &Document{ID: id} }

// Clone returns a deep copy of the document tree. Transforms operate on
// clones so that upstream operators observe immutable inputs. The clone of
// a text view shares its nodes' tables and string, which are never written.
func (d *Document) Clone() *Document {
	if d == nil {
		return nil
	}
	cp := *d
	if d.Binary != nil {
		cp.Binary = make([]byte, len(d.Binary))
		copy(cp.Binary, d.Binary)
	}
	if d.Embedding != nil {
		cp.Embedding = make([]float32, len(d.Embedding))
		copy(cp.Embedding, d.Embedding)
	}
	cp.Properties = d.Properties.Clone()
	if d.Elements != nil {
		cp.Elements = make([]*Element, len(d.Elements))
		for i, e := range d.Elements {
			cp.Elements[i] = e.Clone()
		}
	}
	if d.Children != nil {
		cp.Children = make([]*Document, len(d.Children))
		for i, c := range d.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return &cp
}

// Walk visits d and every descendant document in depth-first pre-order,
// stopping early if fn returns false. A node of a text view is visited as a
// copy whose Elements are built from its table.
func (d *Document) Walk(fn func(*Document) bool) {
	if d == nil {
		return
	}
	if !fn(d.withElements()) {
		return
	}
	for _, c := range d.Children {
		c.Walk(fn)
	}
}

// AllElements returns the elements of d and all descendants in reading
// order.
func (d *Document) AllElements() []*Element {
	var out []*Element
	d.Walk(func(n *Document) bool {
		out = append(out, n.Elements...)
		return true
	})
	return out
}

// TextContent concatenates the document's own text plus every element's
// text (tables render as markdown, pictures contribute their summary) in
// reading order. Page furniture (Page-header, Page-footer) is boilerplate
// repeated on every page of every document and is left out, as docset's
// MergeChunks leaves it out of chunks. This is the "text-representation" field the Luna
// planner sees (§6.1) and the text every LLM prompt carries of a document.
func (d *Document) TextContent() string {
	var sb strings.Builder
	d.eachEntry(func(text string, _ bool) { writeText(&sb, text) })
	return sb.String()
}

// Sections cuts TextContent at every Section-header: the first string is
// the preamble before the first header (empty when the document opens with
// one), each later string a header and what follows it, in reading order.
// Joined, the strings are TextContent. A document with no Section-header is
// one preamble.
func (d *Document) Sections() []string {
	var sb strings.Builder
	var out []string
	d.eachEntry(func(text string, header bool) {
		if header {
			out = append(out, sb.String())
			sb.Reset()
		}
		writeText(&sb, text)
	})
	return append(out, sb.String())
}

// Line is one entry of TextContent without its newline: a node's text or
// an element as TextContent shows it (a table's Markdown is several lines),
// with the section it is in as Sections numbers them. Joined, Lines are
// TextContent; those of section i are Sections()[i].
type Line struct {
	Text    string
	Section int
}

// Lines cuts TextContent into its entries in one walk, empty ones left out.
func (d *Document) Lines() []Line {
	out := make([]Line, 0, d.elementCount()+1)
	section := 0
	d.eachEntry(func(text string, header bool) {
		if header {
			section++
		}
		if text != "" {
			out = append(out, Line{Text: text, Section: section})
		}
	})
	return out
}

// eachEntry calls fn with every entry of TextContent in reading order,
// empty ones too: each node's text, then each of its elements but page
// furniture as elementText shows it, header reporting a Section-header.
func (d *Document) eachEntry(fn func(text string, header bool)) {
	if d == nil {
		return
	}
	fn(d.Text, false)
	if t := d.table; t != nil {
		for i := range t.len() {
			if e := t.elem(i); !e.typ.IsFurniture() {
				fn(t.textOf(e), e.typ == SectionHeader)
			}
		}
	}
	for _, e := range d.Elements {
		if !e.Type.IsFurniture() {
			fn(elementText(e), e.Type == SectionHeader)
		}
	}
	for _, c := range d.Children {
		c.eachEntry(fn)
	}
}

// writeText appends one non-empty line of text.
func writeText(sb *strings.Builder, text string) {
	if text != "" {
		sb.WriteString(text)
		sb.WriteString("\n")
	}
}

// elementText is the line (or, for a table, lines) TextContent shows for an
// element, without the newline writeText ends it with.
func elementText(e *Element) string { return viewText(e, ChunkText(e)) }

// viewText is elementText(e) given chunk, e's ChunkText: a table's Markdown
// without its last newline, a summarized picture's annotation, any other
// element's Text.
func viewText(e *Element, chunk string) string {
	switch {
	case e.Type == Table && e.Table != nil:
		return strings.TrimSuffix(chunk, "\n")
	case e.Type == Picture && e.Image != nil && e.Image.Summary != "":
		return "[image: " + e.Image.Summary + "]"
	default:
		return e.Text
	}
}

// ChunkText is the text an element adds to its chunk (docset's
// MergeChunks): a table's Markdown, a picture's summary, any other
// element's Text. TextView lays
// out its one string by the same rule, so the texts of a report's chunks
// are found in it.
func ChunkText(e *Element) string {
	switch {
	case e.Type == Table && e.Table != nil:
		return e.Table.Markdown()
	case e.Type == Picture && e.Image != nil:
		return e.Image.Summary
	default:
		return e.Text
	}
}

// EmbeddingText is the text a document is embedded by: its own Text when it
// has one (a chunk), its whole TextContent otherwise (a parsed report).
func (d *Document) EmbeddingText() string {
	if d.Text != "" {
		return d.Text
	}
	return d.TextContent()
}

// PageCount returns the highest page number any element reports.
func (d *Document) PageCount() int {
	maxPage := 0
	if d == nil {
		return maxPage
	}
	if t := d.table; t != nil {
		for i := range t.len() {
			maxPage = max(maxPage, t.elem(i).page)
		}
	}
	for _, e := range d.Elements {
		maxPage = max(maxPage, e.Page)
	}
	for _, c := range d.Children {
		maxPage = max(maxPage, c.PageCount())
	}
	return maxPage
}

// AddElement appends an element to the document's leaf list.
func (d *Document) AddElement(e *Element) { d.Elements = append(d.Elements, e) }

// AddChild appends a child sub-document.
func (d *Document) AddChild(c *Document) { d.Children = append(d.Children, c) }

// Property returns the document property for key as a string ("" if
// absent).
func (d *Document) Property(key string) string { return d.Properties.String(key) }

// SetProperty assigns a document property, keeping the row Set returns.
func (d *Document) SetProperty(key string, value any) {
	d.Properties = d.Properties.Set(key, value)
}

// MarshalJSON renders the document, eliding binary payloads but recording
// their size for debugging. A node of a text view prints its table as the
// Elements it stands for.
func (d *Document) MarshalJSON() ([]byte, error) {
	type alias Document // avoid recursion
	d = d.withElements()
	a := struct {
		*alias
		BinaryBytes int  `json:"binary_bytes,omitempty"`
		HasVector   bool `json:"has_embedding,omitempty"`
	}{alias: (*alias)(d), BinaryBytes: len(d.Binary), HasVector: d.Embedding != nil}
	return json.Marshal(a)
}
