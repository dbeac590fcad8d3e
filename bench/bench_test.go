package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{ten, 0.5, 5},   // rank ceil(5.0) = 5
		{ten, 0.9, 9},   // 0.9·10 must not round up to rank 10
		{ten, 0.91, 10}, // rank ceil(9.1) = 10
		{ten, 0.01, 1},
		{ten, 1, 10},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.p, got, c.want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {650, 0.95}, {200, 0.95},
		{199, 0.9}, {150, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The fixed tail of the benchmark must be supported by its smallest
	// sample, the ≈ 150 requests of each kind on analytics-cold.
	if got := supportedPercentile(150); got != tailPercentile {
		t.Errorf("tailPercentile is %v but 150 samples support %v", tailPercentile, got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "luna.ask", StartUS: 0, EndUS: 100},
		// Two parallel branches overlapping on [30, 40]: the union covers
		// [10, 60], 50 µs, not 30 + 30.
		{ID: 2, Parent: 1, Name: "docset.node.llmFilter", StartUS: 10, EndUS: 40},
		{ID: 3, Parent: 1, Name: "docset.node.llmFilter", StartUS: 30, EndUS: 60},
		// A child rounded past the parent's end counts only up to it.
		{ID: 4, Parent: 1, Name: "docset.node.count", StartUS: 90, EndUS: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "llm.call", StartUS: 15, EndUS: 35},
		// A span of another request with no parent keeps all its time.
		{ID: 6, Name: "index.vector_search", StartUS: 200, EndUS: 230},
	}
	want := map[int]float64{1: 40, 2: 10, 3: 30, 4: 30, 5: 20, 6: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if byName["docset.node.llmFilter"] != 40 {
		t.Errorf("self time of the two llmFilter spans = %v, want 40", byName["docset.node.llmFilter"])
	}
	if layerOf("docset.node.llmFilter") != "docset" || layerOf("plain") != "plain" {
		t.Errorf("layerOf splits at the wrong place")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "load.query_item_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "load.query_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 107}, verdictOK},
		{"better", lower, steady, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"worse than bound", lower, steady, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{"higher is better, fell", higher, steady, []float64{85, 86, 84, 85, 87}, verdictRegressed},
		{"higher is better, rose", higher, steady, []float64{120, 121, 119, 120, 122}, verdictOK},
		{"spread wider than bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, verdictOK},
		{"single runs", lower, []float64{100}, []float64{111}, verdictRegressed},
	}
	for _, c := range cases {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	run := func(trace, correct bool, failed int, metrics map[string]metric) runResult {
		return runResult{Workload: "serve-warm", Trace: trace, Correct: correct, Attempted: 100, Failed: failed, Metrics: metrics}
	}
	rows := compareRuns(
		[]runResult{
			run(false, true, 0, map[string]metric{"load.query_item_p50_ms": {Value: 1}}),
			run(true, true, 0, map[string]metric{"load.query_item_p50_ms": {Value: 50}}),
		},
		[]runResult{run(false, true, 0, map[string]metric{"load.query_item_p50_ms": {Value: 2}, "setup_s": {Value: 1}})},
	)
	if len(rows) != 2 || rows[0].spec.Name != failedShare.Name || rows[0].verdict != verdictOK ||
		rows[1].verdict != verdictRegressed || rows[1].worse != 1 {
		t.Errorf("compareRuns = %+v, want failed_share ok and one regressed row: traced runs and one-sided metrics are left out", rows)
	}

	// One failing or incorrect run on either side voids the comparison,
	// however good the medians look.
	clean := []runResult{run(false, true, 0, nil), run(false, true, 0, nil), run(false, true, 0, nil)}
	for name, dirty := range map[string]runResult{"failed request": run(false, false, 1, nil), "failed check": run(false, false, 0, nil)} {
		tainted := append([]runResult{dirty}, clean...)
		if rows := compareRuns(clean, tainted); len(rows) != 1 || rows[0].verdict != verdictRegressed {
			t.Errorf("%s in B: rows %+v, want failed_share regressed", name, rows)
		}
		if rows := compareRuns(tainted, clean); len(rows) != 1 || rows[0].verdict != verdictRegressed {
			t.Errorf("%s in A: rows %+v, want failed_share regressed", name, rows)
		}
	}
}

func TestScriptsDeterministicPerSeed(t *testing.T) {
	build := func(seed int64) []item { return retrievalScript(rand.New(rand.NewSource(seed)), 16) }
	if !reflect.DeepEqual(build(42), build(42)) {
		t.Error("the same seed gave two different retrieval scripts")
	}
	if reflect.DeepEqual(build(42), build(43)) {
		t.Error("seeds 42 and 43 gave the same retrieval script")
	}
	kinds := map[string]int{}
	for _, it := range build(42) {
		switch {
		case it.rag:
			kinds["rag"]++
		case it.plan != nil:
			kinds["plan"]++
		default:
			kinds["find"]++
		}
	}
	if want := map[string]int{"find": 16, "rag": 2, "plan": 4}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("retrieval script mix = %v, want %v", kinds, want)
	}

	order := clientOrder(42, 0, 30)
	if !reflect.DeepEqual(order, clientOrder(42, 0, 30)) {
		t.Error("the same seed gave one client two different orders")
	}
	if reflect.DeepEqual(order, clientOrder(42, 1, 30)) {
		t.Error("two clients enter the script at the same point")
	}
	for i := range order {
		if order[i] != (order[0]+i)%30 {
			t.Fatalf("order %v is not a rotation of the script", order)
		}
	}

	a, docsA, err := ingestJobs(42, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, docsB, _ := ingestJobs(42, 2, 5)
	if docsA != docsB || !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different ingest job sequences")
	}
	if bytes.Equal(a[0], a[1]) {
		t.Error("two jobs of one sequence are identical")
	}
}

// TestBenchmarkJSONMatchesSpec keeps the root BENCHMARK.json, which the
// driver reads, equal to what this program defines, and inside the limits
// the driver sets.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("../BENCHMARK.json differs from the program's tables; regenerate it with: go run -C bench . -spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is malformed", m.Name, m.Unit, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m == metricSpec{"setup_s", "s", "lower", m.Bound}
	}
	for _, m := range endToEnd {
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// smokeScale shrinks every workload so that the whole harness runs in a
// few seconds: the code paths of the benchmark, not its numbers.
var smokeScale = scale{
	baseAccidents: 20, bigAccidents: 40, topics: 8,
	jobAccidents: 5, jobsPerSecond: 3, setups: 1, bigSetups: 1,
}

func TestSmokeEveryWorkload(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := options{seed: 42, corpusSeed: 42, seconds: 1, scale: smokeScale, traceDir: t.TempDir(), log: io.Discard}
	for _, w := range workloads {
		res, err := runTimed(ctx, w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, failed %d of %d: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for _, m := range timedSpecs {
			got, ok := res.Metrics[m.Name]
			// Only the heap's growth may be 0 or less: a window can free memory.
			if !ok || got.Value <= 0 && m.Name != "load.heap_growth_mb" || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit {
				t.Errorf("%s: metric %s of the timed run = %+v, want a positive value in %s", w.name, m.Name, got, m.Unit)
			}
		}
		if line := resultLine(res); strings.Contains(line, "load.") || strings.Count(line, `"unit"`) != len(endToEnd) {
			t.Errorf("%s: result line of a timed run must hold the end-to-end metrics and no other: %s", w.name, line)
		}

		res, err = runTraced(ctx, w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %v", w.name, res.Problems)
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.Name]; !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", w.name, m.Name, got)
			}
		}
		if _, err := os.Stat(o.traceDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		line := resultLine(res)
		if bytes.ContainsRune([]byte(line), '\n') {
			t.Errorf("%s: result line spans lines", w.name)
		}
	}
}
