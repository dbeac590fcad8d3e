package vision

import (
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/rawdoc"
)

// samplePage builds a page with one of every major structure.
func samplePage() (rawdoc.Page, *rawdoc.Doc) {
	b := rawdoc.NewBuilder("t1", "Test")
	b.SetFurniture("HEADER TEXT", "FOOTER")
	b.AddTitle("Aviation Investigation Report")
	b.AddSectionHeader("Analysis")
	b.AddParagraph(strings.Repeat("The pilot reported a loss of engine power during cruise. ", 4))
	b.AddListItem("carburetor icing was likely")
	b.AddTable([][]string{{"Field", "Value"}, {"Aircraft", "Cessna 172"}, {"Registration", "N12345"}}, true)
	b.AddCaption("Table 1: aircraft details")
	b.AddImage("photograph of the wreckage", "png", 600, 400)
	b.AddFootnote("Conditions were visual.")
	doc := b.Doc()
	return doc.Pages[0], doc
}

func TestCleanSegmentationMatchesGroundTruth(t *testing.T) {
	page, doc := samplePage()
	// Zero-noise model: proposals + classifier only.
	m := NewModel("clean", 1, NoiseProfile{ClusterSlop: 1})
	dets := m.Segment(page, "t1/1")
	gt := doc.Regions

	// Every GT region should have a detection with high IoU and the right
	// label.
	for _, g := range gt {
		bestIoU, bestType := 0.0, docmodel.ElementType(-1)
		for _, d := range dets {
			if iou := d.Box.IoU(g.Box); iou > bestIoU {
				bestIoU, bestType = iou, d.Type
			}
		}
		if bestIoU < 0.6 {
			t.Errorf("%v region: best IoU %.2f too low", g.Type, bestIoU)
			continue
		}
		if bestType != g.Type {
			t.Errorf("%v region classified as %v", g.Type, bestType)
		}
	}
}

func TestSegmentDeterministic(t *testing.T) {
	page, _ := samplePage()
	m := NewModel("svc", 42, ProfileTextract())
	a := m.Segment(page, "t1/1")
	b := m.Segment(page, "t1/1")
	if len(a) != len(b) {
		t.Fatalf("non-deterministic detection count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic detection %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNoiseProfilesDegradeQuality(t *testing.T) {
	page, doc := samplePage()
	gt := doc.Regions
	quality := func(p NoiseProfile) float64 {
		m := NewModel("svc", 7, p)
		var sum float64
		n := 0
		// Average best-IoU-with-correct-label over GT regions, over pages.
		for trial := 0; trial < 20; trial++ {
			dets := m.Segment(page, "t1/"+string(rune('a'+trial)))
			for _, g := range gt {
				best := 0.0
				for _, d := range dets {
					if d.Type == g.Type {
						if iou := d.Box.IoU(g.Box); iou > best {
							best = iou
						}
					}
				}
				sum += best
				n++
			}
		}
		return sum / float64(n)
	}
	docparse := quality(ProfileDocParse())
	textract := quality(ProfileTextract())
	azure := quality(ProfileAzure())
	if !(docparse > textract && textract > azure) {
		t.Errorf("quality ordering wrong: docparse=%.3f textract=%.3f azure=%.3f", docparse, textract, azure)
	}
	if docparse < 0.7 {
		t.Errorf("DocParse profile quality too low: %.3f", docparse)
	}
}

func TestTableStructureFromRules(t *testing.T) {
	page, doc := samplePage()
	var tableRegion docmodel.BBox
	var gt *docmodel.TableData
	for _, r := range doc.Regions {
		if r.Type == docmodel.Table {
			tableRegion, gt = r.Box, r.Table
		}
	}
	if gt == nil {
		t.Fatal("no GT table on page")
	}
	td := TableStructureOCR(page, tableRegion, 0, 0)
	if td.NumRows != gt.NumRows || td.NumCols != gt.NumCols {
		t.Fatalf("grid %dx%d, want %dx%d", td.NumRows, td.NumCols, gt.NumRows, gt.NumCols)
	}
	if c := td.Cell(1, 1); c == nil || c.Text != "Cessna 172" {
		t.Errorf("cell(1,1) = %+v", c)
	}
	if c := td.Cell(0, 0); c == nil || !c.Header {
		t.Errorf("header flag missing on first row: %+v", c)
	}
	if md := td.Markdown(); !strings.Contains(md, "| Registration | N12345 |") {
		t.Errorf("Registration row missing:\n%s", md)
	}
}

func TestTableStructureBorderless(t *testing.T) {
	// Runs laid out in a 2x2 grid with no rules.
	page := rawdoc.Page{Number: 1, Width: 612, Height: 792}
	texts := [][]string{{"Name", "Value"}, {"Speed", "120"}}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			x := 100 + float64(c)*150
			y := 100 + float64(r)*20
			page.Runs = append(page.Runs, rawdoc.TextRun{
				Box:  docmodel.BBox{X0: x, Y0: y, X1: x + 60, Y1: y + 9},
				Text: texts[r][c], Font: rawdoc.FontTableCell,
			})
		}
	}
	td := TableStructureOCR(page, docmodel.BBox{X0: 90, Y0: 90, X1: 400, Y1: 150}, 0, 0)
	if td.NumRows != 2 || td.NumCols != 2 {
		t.Fatalf("borderless grid %dx%d", td.NumRows, td.NumCols)
	}
	if td.Cell(1, 1) == nil || td.Cell(1, 1).Text != "120" {
		t.Errorf("cell(1,1) = %+v", td.Cell(1, 1))
	}
}

func TestExtractTextReadingOrder(t *testing.T) {
	page := rawdoc.Page{Number: 1, Width: 612, Height: 792}
	add := func(x, y float64, s string) {
		page.Runs = append(page.Runs, rawdoc.TextRun{
			Box: docmodel.BBox{X0: x, Y0: y, X1: x + 50, Y1: y + 10}, Text: s, Font: rawdoc.FontBody,
		})
	}
	add(60, 140, "third")
	add(60, 100, "first")
	add(200, 100, "second")
	got := ExtractTextExcluding(page, docmodel.BBox{X0: 0, Y0: 0, X1: 612, Y1: 792}, nil, 0, 0)
	if got != "first second third" {
		t.Errorf("reading order = %q", got)
	}
	// Region restriction.
	got = ExtractTextExcluding(page, docmodel.BBox{X0: 0, Y0: 90, X1: 612, Y1: 120}, nil, 0, 0)
	if got != "first second" {
		t.Errorf("region-restricted = %q", got)
	}
}

func TestOCRCorruption(t *testing.T) {
	text := strings.Repeat("Registration N12345 cleared to land runway 10 ", 10)
	clean := corruptText(text, 0, 1)
	if clean != text {
		t.Error("zero rate should not corrupt")
	}
	noisy := corruptText(text, 0.2, 1)
	if noisy == text {
		t.Error("high rate should corrupt something")
	}
	if len([]rune(noisy)) != len([]rune(text)) {
		t.Error("corruption must preserve length (substitutions only)")
	}
	if corruptText(text, 0.2, 1) != noisy {
		t.Error("corruption must be deterministic per seed")
	}
}

func TestSummarizeImage(t *testing.T) {
	if got := SummarizeImage(&rawdoc.ImageBlob{Desc: "photograph of the accident site"}); got != "photograph of the accident site" {
		t.Errorf("photo desc should pass through: %q", got)
	}
	if got := SummarizeImage(&rawdoc.ImageBlob{Desc: "the main wreckage"}); !strings.Contains(got, "photograph showing") {
		t.Errorf("bare desc should get caption prefix: %q", got)
	}
	if got := SummarizeImage(nil); got != "an unlabeled figure" {
		t.Errorf("nil image: %q", got)
	}
}

func TestDetectTableGrids(t *testing.T) {
	// Two separate grids on one page.
	mk := func(x0, y0, x1, y1 float64) rawdoc.Rule {
		return rawdoc.Rule{Box: docmodel.BBox{X0: x0, Y0: y0, X1: x1, Y1: y1}}
	}
	var rules []rawdoc.Rule
	for _, top := range []float64{100, 400} {
		rules = append(rules,
			mk(50, top, 250, top+0.7),
			mk(50, top+20, 250, top+20.7),
			mk(50, top+40, 250, top+40.7),
			mk(50, top, 50.7, top+40),
			mk(150, top, 150.7, top+40),
			mk(250, top, 250.7, top+40),
		)
	}
	grids := DetectTableGrids(rules)
	if len(grids) != 2 {
		t.Fatalf("found %d grids, want 2", len(grids))
	}
	if grids[0].Y0 > grids[1].Y0 {
		t.Error("grids should be sorted by Y")
	}
	// A lone rule is not a grid.
	if got := DetectTableGrids(rules[:1]); len(got) != 0 {
		t.Errorf("single rule should not form a grid: %v", got)
	}
}
