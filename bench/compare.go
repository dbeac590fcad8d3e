package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one metric of the timed run on one workload, compared across two
// result sets.
type row struct {
	workload string
	spec     metricSpec
	a, b     []float64
	// worse is the share of A's median by which B's median is worse
	// (negative when B is better).
	worse   float64
	verdict string
}

// judge applies the spec's bound to the two sample sets. B has regressed
// when its median is worse than A's by more than the bound. When either
// side's own runs spread (first to third quartile, as a share of the
// median) wider than the bound, the medians cannot settle the question:
// the row is unresolved, unless every run of B reads better than every
// run of A.
func judge(spec metricSpec, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(mb-ma, ma)
	if spread(a) > spec.Bound || spread(b) > spec.Bound {
		if allBetter(spec, a, b) {
			return worse, verdictOK
		}
		return worse, verdictUnresolved
	}
	if worse > spec.Bound {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// spread is the distance between the first and third quartile as a share
// of the median; a single run has none to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// allBetter reports whether every run of b is strictly better than every
// run of a.
func allBetter(spec metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if spec.Better == "higher" && y <= x || spec.Better == "lower" && y >= x {
				return false
			}
		}
	}
	return true
}

// failedShare is the error-rate row every workload gets: failed ÷ attempted
// of each run, a run that is not correct counting as failed throughout.
var failedShare = metricSpec{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0}

// judgeFailures gives the failed_share row its verdict. Medians do not
// settle it: timings of a set that holds a failing or an incorrect run
// were not measured on the work the other set did, so one such run on
// either side makes the row regressed.
func judgeFailures(a, b []float64) (worse float64, verdict string) {
	worse = slices.Max(b) - slices.Max(a)
	if slices.Max(a) > 0 || slices.Max(b) > 0 {
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareRuns pairs the untraced runs of two result sets by workload and
// judges the share of failures and every end-to-end metric and load metric
// both sets measured.
func compareRuns(a, b []runResult) []row {
	values := func(runs []runResult, workload, name string) []float64 {
		var out []float64
		for _, r := range runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if name == failedShare.Name {
				share := ratio(float64(r.Failed), float64(r.Attempted))
				if !r.Correct {
					share = 1
				}
				out = append(out, share)
			} else if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []row
	for _, w := range workloads {
		if fa, fb := values(a, w.name, failedShare.Name), values(b, w.name, failedShare.Name); len(fa) > 0 && len(fb) > 0 {
			r := row{workload: w.name, spec: failedShare, a: fa, b: fb}
			r.worse, r.verdict = judgeFailures(fa, fb)
			rows = append(rows, r)
		}
		for _, spec := range timedSpecs {
			va, vb := values(a, w.name, spec.Name), values(b, w.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := row{workload: w.name, spec: spec, a: va, b: vb}
			r.worse, r.verdict = judge(spec, va, vb)
			rows = append(rows, r)
		}
	}
	return rows
}

func readResults(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file.Runs, nil
}

// compareFiles prints one line per (metric, workload) row and reports
// whether any row is "regressed" or any gated row "unresolved".
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	rows := compareRuns(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no untraced run of any workload", pathA, pathB)
	}
	notOK := false
	fmt.Fprintf(w, "%-20s %-28s %6s %-34s %-34s %7s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "A iqr", "B iqr", "worse", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-28s %6s %-34s %-34s %6.1f%% %6.1f%% %+7.1f%% %5.0f%%  %s\n",
			r.workload, r.spec.Name, r.spec.Unit, summary(r.a), summary(r.b),
			100*spread(r.a), 100*spread(r.b), 100*r.worse, 100*r.spec.Bound, r.verdict)
		// An unresolved load metric is the box's noise, not a finding.
		notOK = notOK || r.verdict == verdictRegressed || r.verdict == verdictUnresolved && !slices.Contains(loadSpecs, r.spec)
	}
	return notOK, nil
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	if len(xs) == 1 {
		return fmt.Sprintf("%.4g (1)", q2)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
