package rawdoc

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sync"

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
var magic = []byte("RAWDOC1\n")

var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// Encode serializes the document to a compressed binary blob — the bytes a
// DocSet carries in Document.Binary before partitioning.
func (d *Doc) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic)
	// A gzip.Writer is over a megabyte of tables: corpora encode thousands
	// of documents, so writers are reused (Reset gives a fresh stream).
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	if err := json.NewEncoder(zw).Encode(d); err != nil {
		return nil, fmt.Errorf("rawdoc: encode %s: %w", d.ID, err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("rawdoc: encode %s: %w", d.ID, err)
	}
	return buf.Bytes(), nil
}

// Decode parses a blob produced by Encode.
func Decode(blob []byte) (*Doc, error) {
	if !bytes.HasPrefix(blob, magic) {
		return nil, fmt.Errorf("rawdoc: not a rawdoc blob (missing magic)")
	}
	zr, err := gzip.NewReader(bytes.NewReader(blob[len(magic):]))
	if err != nil {
		return nil, fmt.Errorf("rawdoc: decode: %w", err)
	}
	defer zr.Close()
	var d Doc
	if err := json.NewDecoder(zr).Decode(&d); err != nil {
		return nil, fmt.Errorf("rawdoc: decode: %w", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("rawdoc: decode trailer: %w", err)
	}
	return &d, nil
}

// PageRegions returns the ground-truth regions on the given 1-based page.
func (d *Doc) PageRegions(page int) []Region {
	var out []Region
	for _, r := range d.Regions {
		if r.Page == page {
			out = append(out, r)
		}
	}
	return out
}

// Stats summarizes a document for logging.
func (d *Doc) Stats() string {
	runs := 0
	for _, p := range d.Pages {
		runs += len(p.Runs)
	}
	return fmt.Sprintf("doc %s: %d pages, %d runs, %d gt-regions", d.ID, len(d.Pages), runs, len(d.Regions))
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
func LineHeight(f FontSpec) float64 { return 1.35 * f.Size }

// TextWidth approximates the rendered width of s at font f.
func TextWidth(s string, f FontSpec) float64 {
	return float64(len([]rune(s))) * CharWidth(f)
}
