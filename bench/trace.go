package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one script item
// share Request; Parent is the ID of the span that caused this one (0 for
// a root). Times are microseconds since the trace began.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Request string  `json:"request"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durUS() float64 { return s.EndUS - s.StartUS }

// layerOf is the part of a span name before the first dot: the module
// the span is charged to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// tracer collects spans in memory. It is used from the single goroutine
// of the traced run's serial client, so it carries no lock. A nil tracer
// records nothing, which is how the timed window runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) offset(at time.Time) float64 { return us(at.Sub(t.t0)) }

// add records a finished interval and returns its ID (0 on a nil tracer).
func (t *tracer) add(name, request string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUS: t.offset(start), EndUS: t.offset(end),
	})
	return id
}

// time runs fn inside a root span and returns how long it took.
func (t *tracer) time(name, request string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, request, 0, start, end)
	return end.Sub(start)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (parallel plan nodes do) and may stick out of the parent (a
// synthesised child rounded to the millisecond can); the union is taken
// over the parts inside the parent, so overlap is never subtracted twice.
func selfTimes(spans []span) map[int]float64 {
	type interval struct{ lo, hi float64 }
	children := map[int][]interval{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.StartUS, p.StartUS), min(s.EndUS, p.EndUS)
		if hi > lo {
			children[p.ID] = append(children[p.ID], interval{lo, hi})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := 0.0, s.StartUS
		for _, iv := range ivs {
			if iv.hi <= edge {
				continue
			}
			covered += iv.hi - max(iv.lo, edge)
			edge = iv.hi
		}
		self[s.ID] = s.durUS() - covered
	}
	return self
}

// selfByName sums self time (µs) over spans of the same name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceFile is what the traced run writes at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfUSByName and SelfUSByLayer total self time per span name and per
	// layer, so the usual question ("which layer holds the time?") needs
	// no tool beyond a JSON viewer.
	SelfUSByName  map[string]float64 `json:"self_us_by_name"`
	SelfUSByLayer map[string]float64 `json:"self_us_by_layer"`
	Spans         []span             `json:"spans"`
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	byName := selfByName(t.spans)
	byLayer := map[string]float64{}
	for name, v := range byName {
		byLayer[layerOf(name)] += v
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: workload, Seed: seed,
		SelfUSByName: byName, SelfUSByLayer: byLayer, Spans: t.spans,
	}, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
