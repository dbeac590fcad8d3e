package rawdoc

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"aryn/internal/docmodel"
)

func buildSample() *Doc {
	b := NewBuilder("test-1", "Test Report")
	b.SetFurniture("National Transportation Safety Board", "CEN24LA001")
	b.AddTitle("Aviation Investigation Report")
	b.AddSectionHeader("Analysis")
	b.AddParagraph(strings.Repeat("The pilot reported that during cruise flight the engine lost partial power. ", 8))
	b.AddListItem("Fuel exhaustion was ruled out")
	b.AddListItem("Carburetor icing conditions were present")
	b.AddTable([][]string{
		{"Field", "Value"},
		{"Aircraft", "Cessna 172"},
		{"Registration", "N12345"},
	}, true)
	b.AddCaption("Table 1: Aircraft details")
	b.AddImage("photograph of wreckage in a field", "png", 800, 600)
	b.AddCaption("Figure 1: Main wreckage")
	b.AddFormula("P(loss) = f(icing, fuel)")
	b.AddFootnote("Visual meteorological conditions prevailed.")
	return b.Doc()
}

func TestBuilderProducesAllClasses(t *testing.T) {
	d := buildSample()
	byType := map[docmodel.ElementType]int{}
	for _, r := range d.Regions {
		byType[r.Type]++
	}
	for _, et := range []docmodel.ElementType{
		docmodel.Title, docmodel.SectionHeader, docmodel.Text, docmodel.ListItem,
		docmodel.Table, docmodel.Caption, docmodel.Picture, docmodel.Formula,
		docmodel.Footnote, docmodel.PageHeader, docmodel.PageFooter,
	} {
		if byType[et] == 0 {
			t.Errorf("no ground-truth region of type %v", et)
		}
	}
}

func TestRegionsWithinPageBounds(t *testing.T) {
	d := buildSample()
	for _, r := range d.Regions {
		if r.Box.X0 < 0 || r.Box.Y0 < 0 || r.Box.X1 > PageWidth+1e-6 || r.Box.Y1 > PageHeight+1e-6 {
			t.Errorf("region %v out of page bounds: %+v", r.Type, r.Box)
		}
		if r.Box.Empty() {
			t.Errorf("region %v has empty box", r.Type)
		}
		if r.Page < 1 || r.Page > len(d.Pages) {
			t.Errorf("region %v on invalid page %d", r.Type, r.Page)
		}
	}
}

func TestRunsBelongToSomeRegion(t *testing.T) {
	// Every body text run should be covered by a ground-truth region; this is
	// the invariant the segmentation evaluation depends on.
	d := buildSample()
	for pi, p := range d.Pages {
		regions := pageRegions(d, pi+1)
		for _, run := range p.Runs {
			cx, cy := run.Box.CenterX(), run.Box.CenterY()
			found := false
			for _, r := range regions {
				if r.Box.Contains(cx, cy) || r.Box.IoU(run.Box) > 0 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("page %d run %q not covered by any region", pi+1, run.Text)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := buildSample()
	d.Meta = map[string]string{"source": "ntsb", "kind": "final", "year": "2024", "agency": "NTSB"}
	blob, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip mismatch: %d pages, %d regions; want %d, %d", len(got.Pages), len(got.Regions), len(d.Pages), len(d.Regions))
	}

	// Meta is written in key order, so map iteration cannot change the
	// bytes: the same document always encodes the same.
	for i := range 5 {
		again, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("Encode #%d differs from the first", i+2)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	blob, err := buildSample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"foreign bytes":  []byte("not a rawdoc"),
		"empty":          nil,
		"RAWDOC1 header": append([]byte("RAWDOC1\n"), blob[len(magic):]...),
		"trailing byte":  append(bytes.Clone(blob), 0),
		"huge count":     append(bytes.Clone(magic), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"bad bool":       badBool(t),
	}
	for name, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted it", name)
		}
	}
	for n := range len(blob) {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("Decode accepted the blob truncated to %d of %d bytes", n, len(blob))
		}
	}
}

// badBool is a minimal blob whose one region's table flag is 2.
func badBool(t *testing.T) []byte {
	d := &Doc{ID: "x", Regions: []Region{{Page: 1}}}
	blob, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob); err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-2] = 2 // the table flag; the image flag is last
	return blob
}

func TestWrap(t *testing.T) {
	lines := wrap("alpha beta gamma delta", 60, FontBody) // 60pt / 5pt per char = 12 chars
	if len(lines) < 2 {
		t.Errorf("expected wrapping, got %v", lines)
	}
	for _, l := range lines {
		if len(l) > 12 {
			t.Errorf("line %q exceeds 12 chars", l)
		}
	}
	if got := wrap("", 100, FontBody); got != nil {
		t.Errorf("wrap empty = %v", got)
	}
	// Pathological long token hard-breaks rather than overflowing.
	long := strings.Repeat("x", 50)
	for _, l := range wrap(long, 60, FontBody) {
		if len(l) > 12 {
			t.Errorf("hard break failed: %q", l)
		}
	}
}

func TestWrapPreservesAllWords(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Join(strings.Fields(w), "")
			if w != "" {
				clean = append(clean, w)
			}
		}
		text := strings.Join(clean, " ")
		lines := wrap(text, 200, FontBody)
		rejoined := strings.Join(lines, " ")
		return strings.Join(strings.Fields(rejoined), "") == strings.Join(clean, "")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTablePagination(t *testing.T) {
	b := NewBuilder("big", "")
	rows := make([][]string, 80) // far more rows than fit one page
	for i := range rows {
		rows[i] = []string{"key", "value"}
	}
	b.AddTable(rows, true)
	d := b.Doc()
	if len(d.Pages) < 2 {
		t.Fatalf("80-row table should span pages, got %d", len(d.Pages))
	}
	totalRows := 0
	for _, r := range d.Regions {
		if r.Type == docmodel.Table {
			totalRows += r.Table.NumRows
		}
	}
	if totalRows != 80 {
		t.Errorf("rows split across chunks = %d, want 80", totalRows)
	}
}

func TestMultiPageFlow(t *testing.T) {
	b := NewBuilder("long", "")
	b.SetFurniture("HDR", "FTR")
	for i := 0; i < 60; i++ {
		b.AddParagraph(strings.Repeat("sentence content here. ", 10))
	}
	d := b.Doc()
	if len(d.Pages) < 3 {
		t.Fatalf("expected multi-page doc, got %d pages", len(d.Pages))
	}
	// Furniture repeats on every page.
	for i := range d.Pages {
		regions := pageRegions(d, i+1)
		hasHeader, hasFooter := false, false
		for _, r := range regions {
			if r.Type == docmodel.PageHeader {
				hasHeader = true
			}
			if r.Type == docmodel.PageFooter {
				hasFooter = true
			}
		}
		if !hasHeader || !hasFooter {
			t.Errorf("page %d missing furniture (header=%v footer=%v)", i+1, hasHeader, hasFooter)
		}
	}
}

func TestCharWidthMonotonic(t *testing.T) {
	if CharWidth(FontSpec{Size: 10, Bold: true}) <= CharWidth(FontSpec{Size: 10}) {
		t.Error("bold should be wider")
	}
	if TextWidth("abcd", FontBody) != 4*CharWidth(FontBody) {
		t.Error("TextWidth should be len*CharWidth")
	}
}

// maxAllocPerByte bounds what Decode may allocate per blob byte: the worst
// element is a one-byte Meta key, a map entry from three bytes.
const maxAllocPerByte = 32

// FuzzRawdocDecode feeds the decoder /v1/ingest's input: never a panic, never
// an allocation far past the blob's size, and what decodes re-encodes to a
// canonical blob that decodes to itself.
func FuzzRawdocDecode(f *testing.F) {
	blob, err := buildSample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(append([]byte("RAWDOC1\n"), blob[len(magic):]...))
	f.Add(append(bytes.Clone(magic), 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f))
	// Hundreds of one- and two-byte Meta keys: the most heap per input byte
	// a valid blob can ask for (≈ 21×).
	meta := &Doc{ID: "m", Meta: map[string]string{}}
	for i := range 256 {
		meta.Meta[string(rune(i))] = ""
	}
	if blob, err = meta.Encode(); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, limit := decodeAlloc(data), uint64(maxAllocPerByte*len(data)+4096); got > limit {
			t.Fatalf("Decode of %d bytes allocated %d, over %d", len(data), got, limit)
		}
		d, err := Decode(data)
		if err != nil {
			return
		}
		canon, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Decode(canon)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again, _ := d2.Encode(); !bytes.Equal(again, canon) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

// decodeAlloc is the fewest bytes any of three Decodes of data allocated:
// TotalAlloc is process-wide, and the minimum drops what other goroutines
// (the fuzzing engine's) allocated meanwhile.
func decodeAlloc(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = Decode(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// pageRegions returns the ground-truth regions on the given 1-based page.
func pageRegions(d *Doc, page int) []Region {
	var out []Region
	for _, r := range d.Regions {
		if r.Page == page {
			out = append(out, r)
		}
	}
	return out
}
