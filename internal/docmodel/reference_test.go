package docmodel

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// referenceTextView is the text view built as a tree of Elements, the way
// TextView built it before a view kept its elements as a table: the same
// string, and each element a Document's Element with its type, page and
// view text. TextView must read exactly as this does.
func referenceTextView(d *Document) (view *Document, text string) {
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
	sb.Grow(max(size-1, 0))
	at := make([]int, len(from))
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
	next := 0
	view = d.referenceView(func(e *Element) string {
		chunk := text[at[next] : at[next]+len(chunks[next])]
		next++
		t := viewText(e, chunk)
		if strings.HasPrefix(chunk, t) {
			t = chunk[:len(t)]
		}
		return t
	})
	return view, text
}

// referenceView is referenceTextView's view of d, the text of each element
// e, in reading order, being text(e).
func (d *Document) referenceView(text func(*Element) string) *Document {
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
			elems[i] = Element{Type: e.Type, Page: e.Page, Text: text(e)}
			v.Elements[i] = &elems[i]
		}
	}
	if d.Children != nil {
		v.Children = make([]*Document, len(d.Children))
		for i, c := range d.Children {
			v.Children[i] = c.referenceView(text)
		}
	}
	return v
}

// viewDiff is the first way documents a and b read differently through the
// API a query, a prompt or a reply reads a stored report by — TextContent,
// Sections, Lines, EmbeddingText, PageCount, the JSON bytes, the elements
// AllElements builds (type, page and text), the tree Walk visits,
// properties and embedding — or "" when they read the same.
func viewDiff(a, b *Document) string {
	if got, want := a.TextContent(), b.TextContent(); got != want {
		return fmt.Sprintf("TextContent\n%q\nwant\n%q", got, want)
	}
	if got, want := a.Sections(), b.Sections(); !slices.Equal(got, want) {
		return fmt.Sprintf("Sections\n%q\nwant\n%q", got, want)
	}
	if got, want := a.Lines(), b.Lines(); !slices.Equal(got, want) {
		return fmt.Sprintf("Lines\n%+v\nwant\n%+v", got, want)
	}
	if got, want := a.EmbeddingText(), b.EmbeddingText(); got != want {
		return fmt.Sprintf("EmbeddingText %q, want %q", got, want)
	}
	if got, want := a.PageCount(), b.PageCount(); got != want {
		return fmt.Sprintf("PageCount %d, want %d", got, want)
	}
	got, err := json.Marshal(a)
	if err != nil {
		return err.Error()
	}
	want, err := json.Marshal(b)
	if err != nil {
		return err.Error()
	}
	if string(got) != string(want) {
		return fmt.Sprintf("JSON\n%s\nwant\n%s", got, want)
	}
	elements := func(d *Document) (out []string) {
		for _, e := range d.AllElements() {
			out = append(out, fmt.Sprintf("%d|%d|%q", e.Type, e.Page, e.Text))
		}
		return out
	}
	if got, want := elements(a), elements(b); !slices.Equal(got, want) {
		return fmt.Sprintf("elements %q, want %q", got, want)
	}
	tree := func(root *Document) (nodes []string) {
		root.Walk(func(n *Document) bool {
			nodes = append(nodes, fmt.Sprintf("%q|%q|%q|%q|%q|%d", n.ID, n.ParentID, n.Path, n.Title, n.Text, len(n.Elements)))
			return true
		})
		return nodes
	}
	if got, want := tree(a), tree(b); !slices.Equal(got, want) {
		return fmt.Sprintf("tree %q, want %q", got, want)
	}
	if a != nil && b != nil && (!a.Properties.Equal(b.Properties) || !slices.Equal(a.Embedding, b.Embedding)) {
		return "properties or embedding"
	}
	return ""
}
