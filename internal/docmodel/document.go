package docmodel

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Document is a node of the hierarchical document tree (§5.1). A document
// carries content (text or raw binary), an ordered list of child documents,
// and JSON-like properties. Leaf chunks are represented as Elements. A DocSet
// is a collection of Documents; a single value can represent anything from a
// freshly-read raw PDF (one node, binary content) to a fully parsed report
// (sections as internal nodes, elements as leaves) to an exploded chunk.
type Document struct {
	// ID uniquely identifies the document within a DocSet.
	ID string `json:"id"`
	// ParentID links an exploded chunk back to its source document, the
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
	// Elements are the leaf chunks of the document in reading order.
	Elements []*Element `json:"elements,omitempty"`
	// Children are nested sub-documents (e.g. sections of a long report).
	Children []*Document `json:"children,omitempty"`
	// Properties is the extracted/enriched metadata for the document.
	Properties Properties `json:"properties,omitempty"`
	// Embedding is the vector for chunk-level documents after embed().
	Embedding []float32 `json:"-"`
}

// New returns an empty document with the given ID.
func New(id string) *Document { return &Document{ID: id} }

// Clone returns a deep copy of the document tree. Transforms operate on
// clones so that upstream operators observe immutable inputs.
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
// stopping early if fn returns false.
func (d *Document) Walk(fn func(*Document) bool) {
	if d == nil {
		return
	}
	if !fn(d) {
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

// ElementsOfType returns all elements (including descendants') with the
// given layout class.
func (d *Document) ElementsOfType(t ElementType) []*Element {
	var out []*Element
	for _, e := range d.AllElements() {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// TextContent concatenates the document's own text plus every element's
// text (tables render as markdown, pictures contribute their summary) in
// reading order. This is the "text-representation" field the Luna planner
// sees (§6.1).
func (d *Document) TextContent() string {
	var sb strings.Builder
	d.Walk(func(n *Document) bool {
		writeText(&sb, n.Text)
		for _, e := range n.Elements {
			writeElement(&sb, e)
		}
		return true
	})
	return sb.String()
}

// Sections cuts TextContent at every Section-header: the first string is
// the preamble before the first header (empty when the document opens with
// one), each later string a header and what follows it, in reading order.
// Page furniture (Page-header, Page-footer) is boilerplate shared by every
// document and is left out, as Explode leaves it out: joined, the strings
// are TextContent without those elements. A document with no Section-header
// is one preamble.
func (d *Document) Sections() []string {
	var sb strings.Builder
	var out []string
	d.Walk(func(n *Document) bool {
		writeText(&sb, n.Text)
		for _, e := range n.Elements {
			switch e.Type {
			case PageHeader, PageFooter:
				continue
			case SectionHeader:
				out = append(out, sb.String())
				sb.Reset()
			}
			writeElement(&sb, e)
		}
		return true
	})
	return append(out, sb.String())
}

// writeText appends one non-empty line of text.
func writeText(sb *strings.Builder, text string) {
	if text != "" {
		sb.WriteString(text)
		sb.WriteString("\n")
	}
}

// writeElement appends an element as TextContent shows it.
func writeElement(sb *strings.Builder, e *Element) { writeText(sb, elementText(e)) }

// elementText is the line (or, for a table, lines) TextContent shows for an
// element, without the newline writeText ends it with: a table's Markdown, a
// summarized picture's annotation, any other element's Text.
func elementText(e *Element) string {
	switch {
	case e.Type == Table && e.Table != nil:
		return strings.TrimSuffix(e.Table.Markdown(), "\n")
	case e.Type == Picture && e.Image != nil && e.Image.Summary != "":
		return "[image: " + e.Image.Summary + "]"
	default:
		return e.Text
	}
}

// TextView returns a copy of the document that keeps what a query reads and
// drops the layout DocParse produced on the way there: the same ID, parent,
// path, title, text, properties, embedding and children, and of every
// element its type, its page and, as Text, the text TextContent shows for
// it. Box, Confidence, Properties, Table and Image are left zero, and so is
// the raw Binary. TextContent, Sections, EmbeddingText and Summary of the
// view equal the document's own, byte for byte, and the view of a view is
// equal to it. This is what index.Store keeps; Clone is the copy that keeps
// everything.
//
// The view shares no mutable state with d (element texts are strings). A
// node's elements live in one array, so a report costs a handful of
// allocations however many elements it has.
func (d *Document) TextView() *Document {
	if d == nil {
		return nil
	}
	v := &Document{
		ID:         d.ID,
		ParentID:   d.ParentID,
		Path:       d.Path,
		Title:      d.Title,
		Text:       d.Text,
		Properties: d.Properties.Clone(),
		Embedding:  slices.Clone(d.Embedding),
	}
	if d.Elements != nil {
		elems := make([]Element, len(d.Elements))
		v.Elements = make([]*Element, len(d.Elements))
		for i, e := range d.Elements {
			elems[i] = Element{Type: e.Type, Page: e.Page, Text: elementText(e)}
			v.Elements[i] = &elems[i]
		}
	}
	if d.Children != nil {
		v.Children = make([]*Document, len(d.Children))
		for i, c := range d.Children {
			v.Children[i] = c.TextView()
		}
	}
	return v
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
	for _, e := range d.AllElements() {
		if e.Page > maxPage {
			maxPage = e.Page
		}
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

// SetProperty assigns a document property, allocating the map if needed.
func (d *Document) SetProperty(key string, value any) {
	d.Properties = d.Properties.Set(key, value)
}

// MarshalJSON renders the document, eliding binary payloads but recording
// their size for debugging.
func (d *Document) MarshalJSON() ([]byte, error) {
	type alias Document // avoid recursion
	a := struct {
		*alias
		BinaryBytes int  `json:"binary_bytes,omitempty"`
		HasVector   bool `json:"has_embedding,omitempty"`
	}{alias: (*alias)(d), BinaryBytes: len(d.Binary), HasVector: d.Embedding != nil}
	return json.Marshal(a)
}

// Summary returns a short single-line description used in traces and the
// CLI drill-down view.
func (d *Document) Summary() string {
	title := d.Title
	if title == "" {
		title = d.ID
	}
	nElem := len(d.AllElements())
	return fmt.Sprintf("%s (elements=%d, props=%d)", title, nElem, len(d.Properties))
}

// Markdown renders the parsed document as Markdown: titles become headers,
// tables render as pipe tables, pictures as annotations. This is the
// "higher-level format" DocParse postprocessing emits (§4).
func (d *Document) Markdown() string {
	var sb strings.Builder
	if d.Title != "" {
		sb.WriteString("# " + d.Title + "\n\n")
	}
	d.Walk(func(n *Document) bool {
		for _, e := range n.Elements {
			switch e.Type {
			case Title:
				sb.WriteString("# " + e.Text + "\n\n")
			case SectionHeader:
				sb.WriteString("## " + e.Text + "\n\n")
			case Table:
				if e.Table != nil {
					sb.WriteString(e.Table.Markdown() + "\n")
				} else {
					sb.WriteString(e.Text + "\n\n")
				}
			case Picture:
				if e.Image != nil && e.Image.Summary != "" {
					sb.WriteString("![" + e.Image.Summary + "]()\n\n")
				} else {
					sb.WriteString("![figure]()\n\n")
				}
			case ListItem:
				sb.WriteString("- " + e.Text + "\n")
			case PageHeader, PageFooter:
				// page furniture is dropped from the reading view
			default:
				sb.WriteString(e.Text + "\n\n")
			}
		}
		return true
	})
	return sb.String()
}
