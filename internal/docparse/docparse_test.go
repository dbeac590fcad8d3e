package docparse

import (
	"context"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/ntsb"
	"aryn/internal/rawdoc"
	"aryn/internal/vision"
)

func sampleRaw(t *testing.T) (*rawdoc.Doc, *ntsb.Incident) {
	t.Helper()
	incs := ntsb.GenerateIncidents(5, 42)
	inc := &incs[0]
	return ntsb.BuildReport(inc), inc
}

func TestParseRawRecoversStructure(t *testing.T) {
	raw, inc := sampleRaw(t)
	svc := New()
	doc, err := svc.ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != inc.ReportID {
		t.Errorf("id = %s", doc.ID)
	}
	var tables []*docmodel.Element
	pictures := 0
	for _, e := range doc.AllElements() {
		switch e.Type {
		case docmodel.Table:
			tables = append(tables, e)
		case docmodel.Picture:
			pictures++
		}
	}
	if len(tables) == 0 {
		t.Error("no tables recovered")
	}
	if pictures == 0 {
		t.Error("no pictures recovered")
	}
	text := doc.TextContent()
	for _, want := range []string{inc.AccidentNumber, inc.Registration, "Probable Cause"} {
		if !strings.Contains(text, want) {
			t.Errorf("parsed text missing %q", want)
		}
	}
	// The header table should round-trip to key/value structure.
	found := false
	for _, e := range tables {
		if e.Table != nil && strings.Contains(e.Table.Markdown(), "| Aircraft | "+inc.Aircraft+" |") {
			found = true
		}
	}
	if !found {
		t.Error("header table did not round-trip Aircraft value")
	}
}

func TestPartitionRequiresBinary(t *testing.T) {
	svc := New()
	if _, err := svc.Partition(docmodel.New("empty")); err == nil {
		t.Error("empty binary should error")
	}
	bad := docmodel.New("bad")
	bad.Binary = []byte("not a rawdoc")
	if _, err := svc.Partition(bad); err == nil {
		t.Error("garbage binary should error")
	}
}

func TestPartitionPreservesIdentityAndProps(t *testing.T) {
	raw, _ := sampleRaw(t)
	blob, err := raw.Encode()
	if err != nil {
		t.Fatal(err)
	}
	in := docmodel.New("custom-id")
	in.Binary = blob
	in.Path = "/data/x.rawdoc"
	in.SetProperty("ingest_batch", "b1")
	out, err := New().Partition(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "custom-id" || out.Path != "/data/x.rawdoc" {
		t.Errorf("identity lost: %s %s", out.ID, out.Path)
	}
	if out.Property("ingest_batch") != "b1" {
		t.Error("pre-set properties lost")
	}
}

func TestPartitionInDocSetPipeline(t *testing.T) {
	corpus, err := ntsb.GenerateCorpus(3, 42)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := corpus.Blobs()
	if err != nil {
		t.Fatal(err)
	}
	ec := docset.NewContext()
	docs, trace, err := docset.ReadBinary(ec, blobs).Partition(New()).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(blobs) {
		t.Fatalf("parsed %d of %d", len(docs), len(blobs))
	}
	nt := trace.Nodes[1]
	if !strings.Contains(nt.Name, "partition[DocParse") || nt.Out != int64(len(blobs)) {
		t.Errorf("partition trace: %+v", nt)
	}
}

func TestOCRPathForScannedDocs(t *testing.T) {
	raw, _ := sampleRaw(t)
	raw.Meta["scanned"] = "true"
	noisy := New(WithOCRErrorRate(0.3))
	doc, err := noisy.ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New().ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Some characters must differ under heavy OCR noise.
	if doc.TextContent() == clean.TextContent() {
		t.Error("scanned parse should show OCR corruption")
	}
	// Unscanned docs never corrupt regardless of rate.
	raw.Meta["scanned"] = "false"
	direct, err := New(WithOCRErrorRate(0.9)).ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	direct2, err := New(WithOCRErrorRate(0.0)).ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TextContent() != direct2.TextContent() {
		t.Error("direct extraction must ignore OCR error rate")
	}
}

func TestPostprocessNMSAndThreshold(t *testing.T) {
	svc := New()
	dets := []vision.Detection{
		{Box: docmodel.BBox{X0: 0, Y0: 0, X1: 100, Y1: 20}, Type: docmodel.Text, Confidence: 0.9},
		{Box: docmodel.BBox{X0: 2, Y0: 1, X1: 99, Y1: 21}, Type: docmodel.Text, Confidence: 0.7},   // duplicate
		{Box: docmodel.BBox{X0: 0, Y0: 50, X1: 100, Y1: 70}, Type: docmodel.Text, Confidence: 0.3}, // below threshold
		{Box: docmodel.BBox{X0: 0, Y0: 100, X1: 100, Y1: 120}, Type: docmodel.Title, Confidence: 0.8},
	}
	kept := svc.postprocess(dets)
	if len(kept) != 2 {
		t.Fatalf("postprocess kept %d, want 2", len(kept))
	}
	if kept[0].Type != docmodel.Text || kept[1].Type != docmodel.Title {
		t.Errorf("reading order broken: %+v", kept)
	}
}

func TestCompetitorSegmenterDegradesParse(t *testing.T) {
	raw, _ := sampleRaw(t)
	good, err := New().ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	azure := New(WithSegmenter(vision.NewModel("azure", 1, vision.ProfileAzure())))
	bad, err := azure.ParseRaw(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Weaker segmentation should produce a different (usually noisier)
	// element stream; sanity-check both parsed something.
	if len(good.AllElements()) == 0 || len(bad.AllElements()) == 0 {
		t.Fatal("parses should be non-empty")
	}
	if len(good.AllElements()) == len(bad.AllElements()) && good.TextContent() == bad.TextContent() {
		t.Error("competitor profile produced an identical parse; noise model inert")
	}
}
