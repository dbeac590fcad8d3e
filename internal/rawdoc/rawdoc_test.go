package rawdoc

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
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
		regions := d.PageRegions(pi + 1)
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
	blob, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || len(got.Pages) != len(d.Pages) || len(got.Regions) != len(d.Regions) {
		t.Errorf("round trip mismatch: %s vs %s", got.Stats(), d.Stats())
	}
	if len(got.Pages[0].Runs) != len(d.Pages[0].Runs) {
		t.Error("runs lost in round trip")
	}

	// Encode reuses gzip writers: the bytes are those of a fresh writer,
	// first use or not.
	var fresh bytes.Buffer
	fresh.Write(magic)
	zw := gzip.NewWriter(&fresh)
	if err := json.NewEncoder(zw).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		again, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, fresh.Bytes()) || !bytes.Equal(again, blob) {
			t.Fatalf("Encode #%d differs from a fresh gzip.Writer's bytes", i+2)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a rawdoc")); err == nil {
		t.Error("Decode should reject foreign bytes")
	}
	if _, err := Decode(append([]byte("RAWDOC1\n"), 0xff, 0x00)); err == nil {
		t.Error("Decode should reject corrupt gzip")
	}
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
		regions := d.PageRegions(i + 1)
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
