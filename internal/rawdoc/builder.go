package rawdoc

import (
	"fmt"
	"strings"

	"aryn/internal/docmodel"
)

// Standard fonts per layout class. The generator writes with these and the
// segmentation models read (noisy views of) them — the same information a
// vision model recovers from rendered glyphs.
var (
	FontTitle     = FontSpec{Size: 18, Bold: true}
	FontSection   = FontSpec{Size: 13, Bold: true}
	FontBody      = FontSpec{Size: 10}
	FontList      = FontSpec{Size: 10}
	FontCaption   = FontSpec{Size: 9, Italic: true}
	FontFootnote  = FontSpec{Size: 7.5}
	FontFormula   = FontSpec{Size: 11, Italic: true}
	FontFurniture = FontSpec{Size: 8.5}
	FontTableCell = FontSpec{Size: 9}
	FontTableHead = FontSpec{Size: 9, Bold: true}
)

const (
	furnitureTop    = 28.0 // y of page-header band
	furnitureBottom = 38.0 // distance of page-footer band from page bottom
	footnoteReserve = 60.0 // bottom strip reserved for footnotes
	blockGap        = 10.0 // vertical gap between blocks
	listIndent      = 16.0
	cellPadX        = 5.0
	cellPadY        = 3.5
)

// Builder lays out logical content into rawdoc pages: it wraps paragraphs
// into positioned runs, breaks pages, draws tables with rule lines, and
// records ground-truth regions as it goes.
type Builder struct {
	doc        *Doc
	page       *Page
	y          float64 // next block's top edge
	footnoteY  float64 // top of the already-placed footnote stack
	header     string
	footer     string
	footnoteIx int
}

// NewBuilder starts a document with the given id and title metadata. Call
// content methods in reading order, then Doc() to finish.
func NewBuilder(id, title string) *Builder {
	b := &Builder{doc: &Doc{ID: id, Title: title, Meta: map[string]string{}}}
	return b
}

// SetFurniture sets repeated page-header and page-footer text. Applies to
// pages started after the call.
func (b *Builder) SetFurniture(header, footer string) {
	b.header = header
	b.footer = footer
}

// Doc finalizes and returns the built document.
func (b *Builder) Doc() *Doc { return b.doc }

func (b *Builder) contentWidth() float64 { return PageWidth - 2*Margin }

// bottomLimit is the largest y a block may extend to on the current page.
func (b *Builder) bottomLimit() float64 {
	return PageHeight - Margin - footnoteReserve
}

func (b *Builder) newPage() {
	n := len(b.doc.Pages) + 1
	b.doc.Pages = append(b.doc.Pages, Page{Number: n, Width: PageWidth, Height: PageHeight})
	b.page = &b.doc.Pages[len(b.doc.Pages)-1]
	b.y = Margin
	b.footnoteY = PageHeight - Margin
	if b.header != "" {
		box := docmodel.BBox{X0: Margin, Y0: furnitureTop, X1: Margin + TextWidth(b.header, FontFurniture), Y1: furnitureTop + FontFurniture.Size}
		b.page.Runs = append(b.page.Runs, TextRun{Box: box, Text: b.header, Font: FontFurniture})
		b.doc.Regions = append(b.doc.Regions, Region{Page: n, Box: box, Type: docmodel.PageHeader, Text: b.header})
	}
	footText := b.footer
	if footText == "" {
		footText = fmt.Sprintf("Page %d", n)
	} else {
		footText = fmt.Sprintf("%s — Page %d", b.footer, n)
	}
	fy := PageHeight - furnitureBottom
	fbox := docmodel.BBox{X0: Margin, Y0: fy, X1: Margin + TextWidth(footText, FontFurniture), Y1: fy + FontFurniture.Size}
	b.page.Runs = append(b.page.Runs, TextRun{Box: fbox, Text: footText, Font: FontFurniture})
	b.doc.Regions = append(b.doc.Regions, Region{Page: n, Box: fbox, Type: docmodel.PageFooter, Text: footText})
}

// ensure guarantees at least h points of vertical space, breaking the page
// if necessary, and returns the top y to draw at.
func (b *Builder) ensure(h float64) float64 {
	if b.page == nil || b.y+h > b.bottomLimit() {
		b.newPage()
	}
	return b.y
}

// PageBreak forces subsequent content onto a fresh page.
func (b *Builder) PageBreak() { b.page = nil }

// wrap splits text into lines that fit the given width at font f. It breaks
// on spaces and hard-breaks pathological words.
func wrap(text string, width float64, f FontSpec) []string {
	words := strings.Fields(text)
	if len(words) == 0 {
		return nil
	}
	maxChars := int(width / CharWidth(f))
	if maxChars < 1 {
		maxChars = 1
	}
	var lines []string
	cur := ""
	flush := func() {
		if cur != "" {
			lines = append(lines, cur)
			cur = ""
		}
	}
	for _, w := range words {
		for len([]rune(w)) > maxChars { // hard-break oversized tokens
			flush()
			r := []rune(w)
			lines = append(lines, string(r[:maxChars]))
			w = string(r[maxChars:])
		}
		switch {
		case cur == "":
			cur = w
		case len([]rune(cur))+1+len([]rune(w)) <= maxChars:
			cur += " " + w
		default:
			flush()
			cur = w
		}
	}
	flush()
	return lines
}

// placeBlock wraps text at the given indent/width, emits runs, and returns
// the union box. It assumes space was ensured by the caller.
func (b *Builder) placeBlock(text string, f FontSpec, indent, width float64) docmodel.BBox {
	lines := wrap(text, width, f)
	lh := LineHeight(f)
	var union docmodel.BBox
	for i, line := range lines {
		y := b.y + float64(float64(i)*lh)
		box := docmodel.BBox{X0: Margin + indent, Y0: y, X1: Margin + indent + TextWidth(line, f), Y1: y + f.Size}
		b.page.Runs = append(b.page.Runs, TextRun{Box: box, Text: line, Font: f})
		union = union.Union(box)
	}
	b.y += float64(float64(len(lines))*lh) + blockGap
	return union
}

// blockHeight estimates the height a block of text will occupy.
func blockHeight(text string, f FontSpec, width float64) float64 {
	n := len(wrap(text, width, f))
	return float64(float64(n) * LineHeight(f))
}

// addTextRegion lays out a text block and records its ground truth region.
func (b *Builder) addTextRegion(text string, f FontSpec, t docmodel.ElementType, indent float64) {
	if strings.TrimSpace(text) == "" {
		return
	}
	width := b.contentWidth() - indent
	h := blockHeight(text, f, width)
	b.ensure(h)
	box := b.placeBlock(text, f, indent, width)
	b.doc.Regions = append(b.doc.Regions, Region{Page: b.page.Number, Box: box, Type: t, Text: text})
}

// AddTitle places a document title block.
func (b *Builder) AddTitle(text string) { b.addTextRegion(text, FontTitle, docmodel.Title, 0) }

// AddSectionHeader places a section heading.
func (b *Builder) AddSectionHeader(text string) {
	b.addTextRegion(text, FontSection, docmodel.SectionHeader, 0)
}

// AddParagraph places a body-text paragraph.
func (b *Builder) AddParagraph(text string) { b.addTextRegion(text, FontBody, docmodel.Text, 0) }

// AddListItem places one bulleted list item.
func (b *Builder) AddListItem(text string) {
	b.addTextRegion("• "+text, FontList, docmodel.ListItem, listIndent)
}

// AddCaption places an italic caption line (usually after an image/table).
func (b *Builder) AddCaption(text string) {
	b.addTextRegion(text, FontCaption, docmodel.Caption, 24)
}

// AddFormula places a centered formula-style line.
func (b *Builder) AddFormula(text string) {
	f := FontFormula
	w := TextWidth(text, f)
	b.ensure(LineHeight(f))
	x0 := Margin + float64((b.contentWidth()-w)/2)
	if x0 < Margin {
		x0 = Margin
	}
	box := docmodel.BBox{X0: x0, Y0: b.y, X1: x0 + w, Y1: b.y + f.Size}
	b.page.Runs = append(b.page.Runs, TextRun{Box: box, Text: text, Font: f})
	b.doc.Regions = append(b.doc.Regions, Region{Page: b.page.Number, Box: box, Type: docmodel.Formula, Text: text})
	b.y += LineHeight(f) + blockGap
}

// AddFootnote places a footnote in the reserved strip at the bottom of the
// current page (or a fresh page if the strip is full).
func (b *Builder) AddFootnote(text string) {
	b.footnoteIx++
	text = fmt.Sprintf("%d. %s", b.footnoteIx, text)
	f := FontFootnote
	width := b.contentWidth()
	h := blockHeight(text, f, width)
	if b.page == nil {
		b.newPage()
	}
	top := b.footnoteY - h
	if top < b.bottomLimit() { // strip full: overflow to a new page's strip
		b.newPage()
		top = b.footnoteY - h
	}
	lines := wrap(text, width, f)
	lh := LineHeight(f)
	var union docmodel.BBox
	for i, line := range lines {
		y := top + float64(float64(i)*lh)
		box := docmodel.BBox{X0: Margin, Y0: y, X1: Margin + TextWidth(line, f), Y1: y + f.Size}
		b.page.Runs = append(b.page.Runs, TextRun{Box: box, Text: line, Font: f})
		union = union.Union(box)
	}
	b.footnoteY = top - 4
	b.doc.Regions = append(b.doc.Regions, Region{Page: b.page.Number, Box: union, Type: docmodel.Footnote, Text: text})
}

// AddImage places a centered image blob of the given natural pixel size,
// scaled to at most the content width and 260pt of height.
func (b *Builder) AddImage(desc, format string, pxW, pxH int) {
	w, h := float64(pxW)/2, float64(pxH)/2 // 2px per point nominal scale
	if maxW := b.contentWidth(); w > maxW {
		h *= maxW / w
		w = maxW
	}
	if maxH := 260.0; h > maxH {
		w *= maxH / h
		h = maxH
	}
	b.ensure(h)
	x0 := Margin + float64((b.contentWidth()-w)/2)
	box := docmodel.BBox{X0: x0, Y0: b.y, X1: x0 + w, Y1: b.y + h}
	img := ImageBlob{Box: box, Format: format, Width: pxW, Height: pxH, Desc: desc}
	b.page.Images = append(b.page.Images, img)
	b.doc.Regions = append(b.doc.Regions, Region{Page: b.page.Number, Box: box, Type: docmodel.Picture, Image: &img})
	b.y += h + blockGap
}

// AddTable lays out a grid of cells with border rules. If headerRow is true
// the first row is styled and marked as a header. Tables too tall for the
// remaining space start on a fresh page; rows beyond a full page are split
// into a continuation table region.
func (b *Builder) AddTable(rows [][]string, headerRow bool) {
	if len(rows) == 0 {
		return
	}
	nCols := 0
	for _, r := range rows {
		if len(r) > nCols {
			nCols = len(r)
		}
	}
	if nCols == 0 {
		return
	}
	// Column widths proportional to max cell text, scaled to fit.
	widths := make([]float64, nCols)
	for _, r := range rows {
		for c, cell := range r {
			w := TextWidth(cell, FontTableCell) + 2*cellPadX
			if w > widths[c] {
				widths[c] = w
			}
		}
	}
	total := 0.0
	for _, w := range widths {
		total += w
	}
	if total > b.contentWidth() {
		scale := b.contentWidth() / total
		for i := range widths {
			widths[i] *= scale
		}
		total = b.contentWidth()
	}
	rowH := LineHeight(FontTableCell) + 2*cellPadY

	remaining := rows
	first := true
	for len(remaining) > 0 {
		avail := b.bottomLimit() - b.ensure(rowH*2) // at least two rows
		fit := int(avail / rowH)
		if fit < 1 {
			fit = 1
		}
		chunk := remaining
		if len(chunk) > fit {
			chunk = chunk[:fit]
		}
		remaining = remaining[len(chunk):]
		b.placeTableChunk(chunk, widths, total, rowH, headerRow && first)
		first = false
		if len(remaining) > 0 {
			b.PageBreak()
		}
	}
}

func (b *Builder) placeTableChunk(rows [][]string, widths []float64, total, rowH float64, headerRow bool) {
	nCols := len(widths)
	top := b.y
	left := Margin
	td := &docmodel.TableData{NumRows: len(rows), NumCols: nCols}
	// Horizontal rules.
	for r := 0; r <= len(rows); r++ {
		y := top + float64(float64(r)*rowH)
		b.page.Rules = append(b.page.Rules, Rule{Box: docmodel.BBox{X0: left, Y0: y, X1: left + total, Y1: y + 0.7}})
	}
	// Vertical rules.
	x := left
	for c := 0; c <= nCols; c++ {
		b.page.Rules = append(b.page.Rules, Rule{Box: docmodel.BBox{X0: x, Y0: top, X1: x + 0.7, Y1: top + float64(float64(len(rows))*rowH)}})
		if c < nCols {
			x += widths[c]
		}
	}
	// Cells.
	for r, row := range rows {
		x := left
		for c := 0; c < nCols; c++ {
			text := ""
			if c < len(row) {
				text = row[c]
			}
			font := FontTableCell
			header := headerRow && r == 0
			if header {
				font = FontTableHead
			}
			cellBox := docmodel.BBox{X0: x, Y0: top + float64(float64(r)*rowH), X1: x + widths[c], Y1: top + float64(float64(r+1)*rowH)}
			if text != "" {
				// Truncate text that overflows its column.
				maxChars := int((widths[c] - 2*cellPadX) / CharWidth(font))
				if maxChars < 1 {
					maxChars = 1
				}
				shown := text
				if len([]rune(shown)) > maxChars {
					shown = string([]rune(shown)[:maxChars])
				}
				runBox := docmodel.BBox{
					X0: x + cellPadX, Y0: cellBox.Y0 + cellPadY,
					X1: x + cellPadX + TextWidth(shown, font), Y1: cellBox.Y0 + cellPadY + font.Size,
				}
				b.page.Runs = append(b.page.Runs, TextRun{Box: runBox, Text: shown, Font: font})
			}
			td.Cells = append(td.Cells, docmodel.TableCell{Row: r, Col: c, Text: text, Header: header, Box: cellBox})
			x += widths[c]
		}
	}
	tableBox := docmodel.BBox{X0: left, Y0: top, X1: left + total, Y1: top + float64(float64(len(rows))*rowH)}
	b.doc.Regions = append(b.doc.Regions, Region{Page: b.page.Number, Box: tableBox, Type: docmodel.Table, Table: td})
	b.y = tableBox.Y1 + blockGap
}
