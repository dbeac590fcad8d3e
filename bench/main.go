// Command bench is the repository's one benchmark for the whole query
// path. It wires a system exactly as cmd/arynd does, serves it on a
// loopback listener in this process, and drives it over HTTP with two
// closed-loop clients under a 5 ms simulated model round trip.
//
//	go run -C bench .                        all four workloads, then each one's traced run
//	go run -C bench . -workload serve-warm   one workload's end-to-end metrics and load metrics
//	go run -C bench . -workload serve-warm -trace 1
//	                                         its per-layer metrics and bench/out/trace-serve-warm.json
//	go run -C bench . -compare A.json B.json apply each metric's bound to two result sets
//	go run -C bench . -spec                  print BENCHMARK.json as this program defines it
//
// README.md explains the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"
)

// metric is one measured value. N is the number of samples behind it
// (0 for a counter read once).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one invocation's outcome for one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Corpus    int64             `json:"corpus_seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what -out appends to and -compare reads.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

// options are one invocation's settings.
type options struct {
	// seed draws the traffic: topic pool, where each client enters the
	// script, ingest-job corpora. corpusSeed generates the corpus the
	// traffic runs over.
	seed       int64
	corpusSeed int64
	seconds    float64
	scale      scale
	traceDir   string
	log        io.Writer // progress and tables; the result line goes to stdout
}

// runTimed measures one workload's end-to-end metrics and load metrics
// with tracing off.
func runTimed(ctx context.Context, w workload, o options) (*runResult, error) {
	// Set-up runs several times and setup_s is the median: one set-up of
	// the small corpus is too short a measurement to repeat within its
	// bound. Only the last system is kept for the window.
	var p *prepared
	var setups, ingestRates []float64
	n := o.scale.setups
	if w.big {
		n = o.scale.bigSetups
	}
	for i := 0; i < n; i++ {
		if p != nil {
			p.h.close()
		}
		var err error
		if p, err = w.setUp(ctx, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, p.setup.Seconds())
		ingestRates = append(ingestRates, float64(p.ingestDocs)/p.ingestWall.Seconds())
	}
	defer p.h.close()
	fmt.Fprintf(o.log, "%s: set up %d× (median %.3f s), %d docs, %d script items\n",
		w.name, len(setups), median(setups), p.ingestDocs, len(p.script))

	win, err := p.window(ctx, o.seed, o.seconds, o.scale)
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}

	res := &runResult{Workload: w.name, Seed: o.seed, Corpus: o.corpusSeed, Seconds: o.seconds, Metrics: map[string]metric{}}
	res.Attempted, res.Failed = p.attempted+win.attempted, win.failed
	res.Problems = append(win.problems, p.gradeProblems(o)...)
	if queries, streams := len(pooled(win.query)), len(pooled(win.ttfe)); queries == 0 || streams == 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("window too short: %d JSON and %d streamed queries completed", queries, streams))
	}
	res.Correct = len(res.Problems) == 0

	set := func(name string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(timedSpecs, name), N: n}
	}
	set("setup_s", median(setups), len(setups))
	set("cold_tokens_per_query", p.coldTokens, p.graded)
	set("answer_quality", p.quality(), 0)
	set("live_heap_mb", p.fixedWorkHeapMB(win), 0)
	p.loadMetrics(win, median(ingestRates), set)
	return res, nil
}

// gradeProblems checks the graded cold pass of set-up: exact agreement
// with the pinned set on a pinned corpus at full scale, a floor elsewhere.
func (p *prepared) gradeProblems(o options) []string {
	switch {
	case p.w.big:
		if p.recall < 0.99 {
			return []string{fmt.Sprintf("recall@10 against brute-force cosine is %.4f, want ≥ 0.99", p.recall)}
		}
	case o.scale != fullScale:
	case pinnedWrong[o.corpusSeed] != nil:
		if pinned := pinnedWrong[o.corpusSeed]; !slices.Equal(p.qaWrong, pinned) {
			return []string{fmt.Sprintf("graded answers changed on corpus %d: wrong questions %v, pinned %v", o.corpusSeed, p.qaWrong, pinned)}
		}
	case p.qaCorrect < o.scale.minQA:
		return []string{fmt.Sprintf("only %d of 30 benchmark questions correct, want ≥ %d", p.qaCorrect, o.scale.minQA)}
	}
	return nil
}

func unitOf(specs []metricSpec, name string) string {
	for _, m := range specs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("metric " + name + " is not in the spec")
}

// printTable lists a result's metrics in spec order, by name, with unit
// and sample count.
func printTable(w io.Writer, res *runResult, specs []metricSpec) {
	fmt.Fprintf(w, "\n%s (seed %d, %g s, trace %v): attempted %d, failed %d, correct %v\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed, res.Correct)
	for _, m := range specs {
		got, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		n := ""
		if got.N > 0 {
			n = fmt.Sprintf("n=%d", got.N)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-7s %s\n", m.Name, got.Value, got.Unit, n)
	}
	for _, problem := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", problem)
	}
}

// resultLine renders the one-line JSON object the driver reads: of a timed
// run the end-to-end metrics, of a traced run the per-layer ones.
func resultLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, spec := range specs {
		m := res.Metrics[spec.Name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		line.Metrics[spec.Name] = value{m.Value, spec.Unit}
	}
	return string(mustJSON(line))
}

// appendResults adds runs to the result file at path, creating it.
func appendResults(path string, runs []*runResult) error {
	var file resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, r := range runs {
		file.Runs = append(file.Runs, *r)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, each followed by its traced run)")
		seed    = flag.Int64("seed", 42, "seed of the traffic: topic pool, where each client enters the script, ingest-job corpora")
		corpus  = flag.Int64("corpus-seed", 42, "seed of the corpus the traffic runs over (43 is held out: -seed 43 -corpus-seed 43)")
		seconds = flag.Float64("seconds", windowSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: make the traced run and report per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", "", "append this invocation's results to a JSON result file")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as defined by this program and exit")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	o := options{seed: *seed, corpusSeed: *corpus, seconds: *seconds, scale: fullScale, traceDir: "out", log: os.Stdout}
	type job struct {
		w     workload
		trace bool
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		jobs = append(jobs, job{w, *trace == 1})
	}

	// No run may outlive the driver's patience; a healthy one takes a
	// quarter of this.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second*time.Duration(len(jobs)))
	defer cancel()
	var results []*runResult
	allCorrect := true
	for _, j := range jobs {
		var res *runResult
		var err error
		specs := timedSpecs
		if j.trace {
			res, err = runTraced(ctx, j.w, o)
			specs = perLayer
		} else {
			res, err = runTimed(ctx, j.w, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.w.name, err)
			os.Exit(1)
		}
		printTable(o.log, res, specs)
		results = append(results, res)
		allCorrect = allCorrect && res.Correct
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(resultLine(results[len(results)-1]))
	if !allCorrect {
		os.Exit(1)
	}
}
