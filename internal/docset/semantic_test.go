package docset

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/fault"
	"aryn/internal/llm"
)

func ntsbishDoc(id, state, narrative string) *docmodel.Document {
	d := docmodel.New(id)
	d.AddElement(&docmodel.Element{Type: docmodel.Table, Page: 1, Table: &docmodel.TableData{
		NumRows: 2, NumCols: 2,
		Cells: []docmodel.TableCell{
			{Row: 0, Col: 0, Text: "Location"}, {Row: 0, Col: 1, Text: state},
			{Row: 1, Col: 0, Text: "Aircraft"}, {Row: 1, Col: 1, Text: "Cessna 172"},
		},
	}})
	d.AddElement(&docmodel.Element{Type: docmodel.Text, Text: narrative, Page: 2})
	return d
}

func TestLLMExtract(t *testing.T) {
	ec := NewContext(WithLLM(llm.NewSim(1)))
	docs := []*docmodel.Document{
		ntsbishDoc("A", "Mesa, Arizona", "The engine lost power over the desert."),
		ntsbishDoc("B", "Hilo, Hawaii", "The airplane landed long in heavy rain and wind."),
	}
	out, err := FromDocuments(ec, docs).LLMExtract([]llm.FieldSpec{
		{Name: "us_state", Type: "string"},
		{Name: "weather_related", Type: "bool"},
	}).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Property("us_state") != "AZ" || out[1].Property("us_state") != "HI" {
		t.Errorf("states = %q, %q", out[0].Property("us_state"), out[1].Property("us_state"))
	}
	wA, _ := out[0].Properties.Get("weather_related")
	wB, _ := out[1].Properties.Get("weather_related")
	if wA != false || wB != true {
		t.Errorf("weather_related = %v, %v (want false, true)", wA, wB)
	}
}

func TestLLMFilter(t *testing.T) {
	ec := NewContext(WithLLM(llm.NewSim(1)))
	docs := []*docmodel.Document{
		ntsbishDoc("A", "Mesa, Arizona", "The airplane struck a flock of geese after takeoff."),
		ntsbishDoc("B", "Hilo, Hawaii", "The pilot ran the left tank dry and landed in a field."),
	}
	out, err := FromDocuments(ec, docs).LLMFilter("Does the incident involve birds?").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "A" {
		t.Fatalf("filter kept %v", ids(out))
	}
}

func TestLLMFilterRetriesTransientFailures(t *testing.T) {
	// Seed 10's 40% stream fails the first call and at most one of the
	// next five, so however the two documents' calls interleave, neither
	// fails more often than the retry budget allows.
	model := fault.New(fault.Spec{Seed: 10, ErrorRate: 0.4}).Client(llm.NewSim(3))
	ec := NewContext(WithLLM(model), WithParallelism(2))
	docs := []*docmodel.Document{
		ntsbishDoc("A", "Mesa, Arizona", "A bird strike damaged the windshield."),
		ntsbishDoc("B", "Reno, Nevada", "Geese were ingested into the engine."),
	}
	out, trace, err := FromDocuments(ec, docs).LLMFilter("Does the incident involve birds?").Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("kept %d docs", len(out))
	}
	nt := traceNode(trace, "llmFilter[Does the incident involve birds?]")
	if nt == nil || nt.Retries == 0 {
		t.Error("expected recorded retries under failure injection")
	}
}

func TestLLMExtractFailsAfterRetryBudget(t *testing.T) {
	inj := fault.New(fault.Spec{Seed: 3, ErrorRate: 1})
	ec := NewContext(WithLLM(inj.Client(llm.NewSim(3))))
	docs := []*docmodel.Document{ntsbishDoc("A", "Mesa, Arizona", "text")}
	_, _, err := FromDocuments(ec, docs).LLMExtract([]llm.FieldSpec{{Name: "us_state", Type: "string"}}).Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("want retries exhausted, got %v", err)
	}
	if calls := inj.Stats().Calls; calls != retryBudget+1 {
		t.Errorf("model called %d times, want the first attempt and %d retries", calls, retryBudget)
	}
}

func TestEmbedTransform(t *testing.T) {
	ec := NewContext()
	d := docmodel.New("X")
	d.Text = "engine failure during cruise"
	out, err := FromDocuments(ec, []*docmodel.Document{d}).Embed().TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0].Embedding) == 0 {
		t.Fatal("embedding missing")
	}
}

func TestSummarize(t *testing.T) {
	ec := NewContext(WithLLM(llm.NewSim(1)))
	docs := []*docmodel.Document{
		ntsbishDoc("A", "Mesa, Arizona", "Engine failure forced an off-airport landing."),
		ntsbishDoc("B", "Hilo, Hawaii", "A gear collapse occurred on rollout."),
	}
	out, err := FromDocuments(ec, docs).Summarize("summarize the incidents").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("summarize should produce one doc, got %d", len(out))
	}
	if n, _ := out[0].Properties.Int("source_count"); n != 2 {
		t.Errorf("source_count = %d", n)
	}
	if out[0].Text == "" {
		t.Error("summary text empty")
	}
}

func TestLLMReduceByKey(t *testing.T) {
	ec := NewContext(WithLLM(llm.NewSim(1)))
	a := ntsbishDoc("A", "Mesa, Arizona", "Engine failure after takeoff.")
	a.SetProperty("state", "AZ")
	b := ntsbishDoc("B", "Tucson, Arizona", "Engine fire in cruise.")
	b.SetProperty("state", "AZ")
	c := ntsbishDoc("C", "Hilo, Hawaii", "Hard landing in rain.")
	c.SetProperty("state", "HI")
	out, err := FromDocuments(ec, []*docmodel.Document{a, b, c}).
		LLMReduceByKey("state", "combine the incident narratives").TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %v", ids(out))
	}
	if out[0].Property("state") != "AZ" || out[1].Property("state") != "HI" {
		t.Errorf("group keys = %q, %q", out[0].Property("state"), out[1].Property("state"))
	}
	if n, _ := out[0].Properties.Int("group_size"); n != 2 {
		t.Errorf("AZ group size = %d", n)
	}
	if !strings.Contains(out[0].Text, "Summary") {
		t.Errorf("combined text = %q", out[0].Text)
	}
}

func TestLLMCluster(t *testing.T) {
	ec := NewContext()
	mk := func(id, text string) *docmodel.Document {
		d := docmodel.New(id)
		d.Text = text
		return d
	}
	docs := []*docmodel.Document{
		mk("e1", "engine failure power loss cylinder carburetor engine"),
		mk("e2", "engine power loss fuel starvation engine cylinder"),
		mk("w1", "crosswind gust landing runway excursion wind"),
		mk("w2", "gusting wind hard landing bounced runway wind"),
	}
	out, err := FromDocuments(ec, docs).LLMCluster(2, nil, 7).TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cluster := map[string]int{}
	for _, d := range out {
		cid, ok := d.Properties.Int("cluster_id")
		if !ok {
			t.Fatalf("%s missing cluster_id", d.ID)
		}
		cluster[d.ID] = cid
		if d.Property("cluster_label") == "" {
			t.Errorf("%s missing cluster_label", d.ID)
		}
	}
	if cluster["e1"] != cluster["e2"] || cluster["w1"] != cluster["w2"] {
		t.Errorf("similar docs should co-cluster: %v", cluster)
	}
	if cluster["e1"] == cluster["w1"] {
		t.Errorf("dissimilar docs should separate: %v", cluster)
	}
}

func TestLLMClusterValidation(t *testing.T) {
	ec := NewContext()
	_, _, err := FromDocuments(ec, testDocs(3)).LLMCluster(0, nil, 1).Execute(context.Background())
	if err == nil {
		t.Error("k=0 should error")
	}
	// k > n clamps rather than failing.
	out, err := FromDocuments(ec, testDocs(2)).LLMCluster(5, nil, 1).TakeAll(context.Background())
	if err != nil || len(out) != 2 {
		t.Errorf("k>n should clamp: %v %v", len(out), err)
	}
	// Empty input passes through.
	out, err = FromDocuments(ec, nil).LLMCluster(3, nil, 1).TakeAll(context.Background())
	if err != nil || len(out) != 0 {
		t.Errorf("empty input: %v %v", len(out), err)
	}
}

func TestMaterializeMemoryAndDisk(t *testing.T) {
	ec := NewContext()
	cache := NewMemoryCache()
	path := t.TempDir() + "/snap.jsonl.gz"
	out, err := FromDocuments(ec, testDocs(4)).
		MaterializeMemory(cache, "mid").
		TakeAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatal("materialize should pass docs through")
	}
	snap, ok := cache.Get("mid")
	if !ok || len(snap) != 4 {
		t.Fatalf("memory snapshot missing: %v %d", ok, len(snap))
	}
	// Snapshot is isolated from downstream mutation.
	out[0].SetProperty("i", -1)
	if v, _ := snap[0].Properties.Int("i"); v != 0 {
		t.Error("snapshot must be a deep copy")
	}
	if err := WriteJSONL(path, snap); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var loaded []string
	for dec := json.NewDecoder(zr); dec.More(); {
		var d docmodel.Document
		if err := dec.Decode(&d); err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, d.ID)
	}
	if len(loaded) != 4 || loaded[0] != "d000" {
		t.Fatalf("disk round trip: %v", loaded)
	}
	if _, ok := cache.Get("absent"); ok {
		t.Error("absent cache key should miss")
	}
}
