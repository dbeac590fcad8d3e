package layout

import (
	"reflect"
	"strings"
	"testing"

	"aryn/internal/docmodel"
)

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(10, 42)
	b := GenerateCorpus(10, 42)
	if len(a.Docs) != 10 || len(b.Docs) != 10 {
		t.Fatal("wrong corpus size")
	}
	for i := range a.Docs {
		if !reflect.DeepEqual(a.Docs[i], b.Docs[i]) {
			t.Fatalf("doc %d differs across runs", i)
		}
	}
	c := GenerateCorpus(10, 43)
	if reflect.DeepEqual(a.Docs[0], c.Docs[0]) {
		t.Error("different seeds should differ")
	}
}

func TestCorpusCoversDomainsAndClasses(t *testing.T) {
	corpus := GenerateCorpus(25, 7)
	domains := map[string]bool{}
	for _, d := range corpus.Docs {
		domains[strings.SplitN(d.ID, "-", 2)[0]] = true
	}
	if len(domains) != 5 {
		t.Errorf("domains covered = %v", domains)
	}
	byType := map[docmodel.ElementType]int{}
	for _, g := range corpus.GroundTruths() {
		byType[g.Type]++
	}
	for _, et := range docmodel.AllElementTypes() {
		if byType[et] == 0 {
			t.Errorf("corpus has no %v regions", et)
		}
	}
	pages := 0
	for _, d := range corpus.Docs {
		pages += len(d.Pages)
	}
	if pages < 25 {
		t.Errorf("pages = %d, want >= docs", pages)
	}
}

func TestEvaluateSegmenterOrderingMatchesTable1(t *testing.T) {
	// The headline reproduction check: DocParse must beat Textract, which
	// must beat Unstructured, which must beat Azure, in mAP — and DocParse's
	// lead must be roughly the paper's 1.5-2.4x factor.
	corpus := GenerateCorpus(20, 11)
	results := map[string]Result{}
	maps := map[string]float64{}
	for _, seg := range Table1Services(12) {
		results[seg.Name()] = EvaluateSegmenter(corpus, seg)
		maps[seg.Name()] = results[seg.Name()].MAP
	}
	if len(results) != 4 {
		t.Fatalf("services = %d", len(results))
	}
	dp, tx, un, az := maps["DocParse"], maps["Amazon Textract"], maps["Unstructured (YoloX)"], maps["Azure AI Document Intelligence"]
	if !(dp > tx && tx > un && un > az) {
		t.Errorf("ordering wrong: dp=%.3f tx=%.3f un=%.3f az=%.3f", dp, tx, un, az)
	}
	// Paper factors: DocParse is 1.5x Textract and 2.4x Azure in mAP.
	if ratio := dp / tx; ratio < 1.2 || ratio > 2.0 {
		t.Errorf("DocParse/Textract ratio %.2f outside paper band (~1.5)", ratio)
	}
	if ratio := dp / az; ratio < 1.8 || ratio > 3.2 {
		t.Errorf("DocParse/Azure ratio %.2f outside paper band (~2.4)", ratio)
	}
	// mAR ordering: DocParse first, all within the paper's rough bands.
	for service, r := range results {
		if r.MAR <= r.MAP-0.2 {
			t.Errorf("%s: mAR %.3f implausibly below mAP %.3f", service, r.MAR, r.MAP)
		}
	}
}
