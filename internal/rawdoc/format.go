package rawdoc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"aryn/internal/docmodel"
)

// Standard US-Letter page geometry in points.
const (
	PageWidth  = 612.0
	PageHeight = 792.0
	Margin     = 54.0
)

// FontSpec describes the typeface of a text run. The segmentation models
// exploit size/weight as classification features, exactly as a vision model
// exploits rendered glyph size.
type FontSpec struct {
	Size   float64 `json:"size"`
	Bold   bool    `json:"bold,omitempty"`
	Italic bool    `json:"italic,omitempty"`
}

// TextRun is one positioned line of text on a page (a PDF "Tj" analogue).
type TextRun struct {
	Box  docmodel.BBox `json:"box"`
	Text string        `json:"text"`
	Font FontSpec      `json:"font"`
}

// Rule is a thin drawn line (table border, separator).
type Rule struct {
	Box docmodel.BBox `json:"box"`
}

// ImageBlob is a placed raster image. Desc is the latent content
// description used by the image-summary model simulation (a real system
// would run a multi-modal LLM over the pixels).
type ImageBlob struct {
	Box    docmodel.BBox `json:"box"`
	Format string        `json:"format"`
	Width  int           `json:"width"`
	Height int           `json:"height"`
	Desc   string        `json:"desc,omitempty"`
}

// Page is one rendered page of a document.
type Page struct {
	Number int         `json:"number"`
	Width  float64     `json:"width"`
	Height float64     `json:"height"`
	Runs   []TextRun   `json:"runs,omitempty"`
	Rules  []Rule      `json:"rules,omitempty"`
	Images []ImageBlob `json:"images,omitempty"`
}

// Region is a ground-truth labeled layout region (evaluation only).
type Region struct {
	Page  int                  `json:"page"`
	Box   docmodel.BBox        `json:"box"`
	Type  docmodel.ElementType `json:"type"`
	Text  string               `json:"text,omitempty"`
	Table *docmodel.TableData  `json:"table,omitempty"`
	Image *ImageBlob           `json:"image,omitempty"`
}

// Doc is a complete raw document: pages of geometry plus held-out ground
// truth.
type Doc struct {
	ID      string            `json:"id"`
	Title   string            `json:"title,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
	Pages   []Page            `json:"pages"`
	Regions []Region          `json:"regions,omitempty"`
}

// magic prefixes encoded rawdoc blobs so Decode can reject foreign bytes.
var magic = []byte("RAWDOC2\n")

// Encode serializes the document to its flat binary blob — the bytes a
// DocSet carries in Document.Binary before partitioning. The layout is in
// the package comment; equal documents encode to equal bytes. It never
// fails.
func (d *Doc) Encode() ([]byte, error) {
	// 16 KB holds an NTSB report's blob (≈ 15.6 KB) without regrowing.
	w := writer(append(make([]byte, 0, 16<<10), magic...))
	w.str(d.ID)
	w.str(d.Title)
	w.uvarint(uint64(len(d.Meta)))
	for _, k := range slices.Sorted(maps.Keys(d.Meta)) {
		w.str(k)
		w.str(d.Meta[k])
	}
	w.nilableLen(d.Pages == nil, len(d.Pages))
	for i := range d.Pages {
		p := &d.Pages[i]
		w.int(p.Number)
		w.f64(p.Width)
		w.f64(p.Height)
		w.uvarint(uint64(len(p.Runs)))
		for _, r := range p.Runs {
			w.box(r.Box)
			w.str(r.Text)
			w.f64(r.Font.Size)
			w.bool(r.Font.Bold)
			w.bool(r.Font.Italic)
		}
		w.uvarint(uint64(len(p.Rules)))
		for _, r := range p.Rules {
			w.box(r.Box)
		}
		w.uvarint(uint64(len(p.Images)))
		for i := range p.Images {
			w.image(&p.Images[i])
		}
	}
	w.uvarint(uint64(len(d.Regions)))
	for i := range d.Regions {
		r := &d.Regions[i]
		w.int(r.Page)
		w.box(r.Box)
		w.int(int(r.Type))
		w.str(r.Text)
		w.bool(r.Table != nil)
		if t := r.Table; t != nil {
			w.int(t.NumRows)
			w.int(t.NumCols)
			w.nilableLen(t.Cells == nil, len(t.Cells))
			for _, c := range t.Cells {
				w.int(c.Row)
				w.int(c.Col)
				w.int(c.RowSpan)
				w.int(c.ColSpan)
				w.str(c.Text)
				w.bool(c.Header)
				w.box(c.Box)
			}
		}
		w.bool(r.Image != nil)
		if r.Image != nil {
			w.image(r.Image)
		}
	}
	return w, nil
}

// Smallest encoded size of each repeated element, so a declared count the
// remaining bytes cannot hold is an error before anything is allocated.
const (
	boxBytes    = 4 * 8
	runBytes    = boxBytes + 1 + 8 + 2
	imageBytes  = boxBytes + 4
	pageBytes   = 1 + 2*8 + 3
	regionBytes = 1 + boxBytes + 4
	cellBytes   = 6 + 1 + boxBytes
)

// Decode parses a blob produced by Encode. Anything else — foreign bytes, a
// truncated or over-long blob, a count past the end — is an error.
func Decode(blob []byte) (*Doc, error) {
	if !bytes.HasPrefix(blob, magic) {
		return nil, fmt.Errorf("rawdoc: not a rawdoc blob (missing magic)")
	}
	r := &reader{b: blob[len(magic):]}
	d := &Doc{ID: r.str(), Title: r.str()}
	if n := r.count(2); n > 0 {
		d.Meta = make(map[string]string, n)
		for range n {
			k := r.str()
			d.Meta[k] = r.str()
		}
	}
	if n, ok := r.nilableCount(pageBytes); ok {
		d.Pages = make([]Page, n)
	}
	for i := range d.Pages {
		p := &d.Pages[i]
		p.Number = r.int()
		p.Width = r.f64()
		p.Height = r.f64()
		if n := r.count(runBytes); n > 0 {
			p.Runs = make([]TextRun, n)
			for j := range p.Runs {
				run := &p.Runs[j]
				run.Box = r.box()
				run.Text = r.str()
				run.Font = FontSpec{Size: r.f64(), Bold: r.bool(), Italic: r.bool()}
			}
		}
		if n := r.count(boxBytes); n > 0 {
			p.Rules = make([]Rule, n)
			for j := range p.Rules {
				p.Rules[j].Box = r.box()
			}
		}
		if n := r.count(imageBytes); n > 0 {
			p.Images = make([]ImageBlob, n)
			for j := range p.Images {
				p.Images[j] = r.image()
			}
		}
	}
	if n := r.count(regionBytes); n > 0 {
		d.Regions = make([]Region, n)
		for i := range d.Regions {
			g := &d.Regions[i]
			g.Page = r.int()
			g.Box = r.box()
			g.Type = docmodel.ElementType(r.int())
			g.Text = r.str()
			if r.bool() {
				t := &docmodel.TableData{NumRows: r.int(), NumCols: r.int()}
				if n, ok := r.nilableCount(cellBytes); ok {
					t.Cells = make([]docmodel.TableCell, n)
				}
				for j := range t.Cells {
					c := &t.Cells[j]
					c.Row, c.Col, c.RowSpan, c.ColSpan = r.int(), r.int(), r.int(), r.int()
					c.Text = r.str()
					c.Header = r.bool()
					c.Box = r.box()
				}
				g.Table = t
			}
			if r.bool() {
				img := r.image()
				g.Image = &img
			}
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("rawdoc: decode: %w", r.err)
	}
	return d, nil
}

// writer appends the blob's primitives: strings and slices are a uvarint
// length and then their payload, ints zigzag varints, floats their 8 IEEE
// bytes little-endian, bools one byte.
type writer []byte

func (w *writer) uvarint(v uint64) { *w = binary.AppendUvarint(*w, v) }
func (w *writer) int(v int)        { *w = binary.AppendVarint(*w, int64(v)) }
func (w *writer) f64(v float64)    { *w = binary.LittleEndian.AppendUint64(*w, math.Float64bits(v)) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	*w = append(*w, s...)
}

func (w *writer) bool(b bool) {
	if b {
		*w = append(*w, 1)
	} else {
		*w = append(*w, 0)
	}
}

// nilableLen writes 0 for a nil slice and len+1 otherwise, for the two
// slices (Doc.Pages, TableData.Cells) whose nil and empty differ.
func (w *writer) nilableLen(isNil bool, n int) {
	if isNil {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(n) + 1)
	}
}

func (w *writer) box(b docmodel.BBox) {
	w.f64(b.X0)
	w.f64(b.Y0)
	w.f64(b.X1)
	w.f64(b.Y1)
}

func (w *writer) image(m *ImageBlob) {
	w.box(m.Box)
	w.str(m.Format)
	w.int(m.Width)
	w.int(m.Height)
	w.str(m.Desc)
}

// reader consumes what writer appends. The first error sticks and empties
// the input, so every later read returns a zero value and every later
// count is 0: callers check err once, at the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail("bad or truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads a length whose elements take at least size bytes each.
func (r *reader) count(size int) int { return r.fit(r.uvarint(), size) }

// nilableCount reads what nilableLen wrote: ok is false for a nil slice.
func (r *reader) nilableCount(size int) (n int, ok bool) {
	v := r.uvarint()
	if v == 0 {
		return 0, false
	}
	n = r.fit(v-1, size)
	return n, r.err == nil
}

// fit rejects n elements of at least size bytes each that the remaining
// bytes cannot hold, so no allocation outgrows the blob by more than the
// in-memory/encoded size ratio.
func (r *reader) fit(n uint64, size int) int {
	if n > uint64(len(r.b)/size) {
		r.fail("count %d overruns the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) f64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *reader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("bad or truncated bool")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *reader) box() docmodel.BBox {
	return docmodel.BBox{X0: r.f64(), Y0: r.f64(), X1: r.f64(), Y1: r.f64()}
}

func (r *reader) image() ImageBlob {
	return ImageBlob{Box: r.box(), Format: r.str(), Width: r.int(), Height: r.int(), Desc: r.str()}
}

// CharWidth approximates the rendered advance width of one character at the
// given font size. The layout engine and the OCR/text extractors share this
// metric so geometry round-trips.
func CharWidth(f FontSpec) float64 {
	w := 0.50 * f.Size
	if f.Bold {
		w *= 1.06
	}
	return w
}

// LineHeight is the vertical advance for a run at the given font size.
// Its product is rounded, so a caller's add cannot fuse with it once
// inlined (scripts/fmacheck.sh); TextWidth's is too.
func LineHeight(f FontSpec) float64 { return float64(1.35 * f.Size) }

// TextWidth approximates the rendered width of s at font f.
func TextWidth(s string, f FontSpec) float64 {
	return float64(float64(len([]rune(s))) * CharWidth(f))
}
