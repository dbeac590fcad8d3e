package index

import (
	"fmt"
	"strconv"
	"strings"

	"aryn/internal/docmodel"
)

// Predicate is a boolean filter over document properties, the "filters over
// the properties" half of queryDatabase (Table 2a).
type Predicate interface {
	// Match evaluates the predicate against a property map.
	Match(p docmodel.Properties) bool
	// String renders the predicate for plan display and traces.
	String() string
}

type matchAll struct{}

func (matchAll) Match(docmodel.Properties) bool { return true }
func (matchAll) String() string                 { return "*" }

// MatchAll accepts every document.
func MatchAll() Predicate { return matchAll{} }

type termPred struct {
	field string
	value string
}

// Term matches documents whose field equals value (case-insensitive string
// comparison after coercion; numeric values compare numerically).
func Term(field string, value any) Predicate {
	return termPred{field: field, value: fmt.Sprintf("%v", value)}
}

func (t termPred) Match(p docmodel.Properties) bool {
	v, ok := p.Get(t.field)
	if !ok || v == nil {
		return false
	}
	have := p.String(t.field)
	if fn, err1 := strconv.ParseFloat(strings.TrimSpace(have), 64); err1 == nil {
		if wn, err2 := strconv.ParseFloat(strings.TrimSpace(t.value), 64); err2 == nil {
			return fn == wn
		}
	}
	return strings.EqualFold(strings.TrimSpace(have), strings.TrimSpace(t.value))
}

func (t termPred) String() string { return fmt.Sprintf("%s == %q", t.field, t.value) }

type containsPred struct {
	field string
	sub   string
}

// Contains matches documents whose field's string form contains sub
// (case-insensitive) — the keyword-in-field filter Luna uses for queries
// like "involving Piper aircraft".
func Contains(field, sub string) Predicate { return containsPred{field: field, sub: sub} }

func (c containsPred) Match(p docmodel.Properties) bool {
	return strings.Contains(strings.ToLower(p.String(c.field)), strings.ToLower(c.sub))
}

func (c containsPred) String() string { return fmt.Sprintf("%s contains %q", c.field, c.sub) }

type rangePred struct {
	field    string
	min, max *float64 // nil = unbounded
}

// Range matches documents whose numeric field lies in [min, max]; pass nil
// for an open bound.
func Range(field string, min, max *float64) Predicate {
	return rangePred{field: field, min: min, max: max}
}

func (r rangePred) Match(p docmodel.Properties) bool {
	f, ok := p.Float(r.field)
	if !ok {
		return false
	}
	if r.min != nil && f < *r.min {
		return false
	}
	if r.max != nil && f > *r.max {
		return false
	}
	return true
}

func (r rangePred) String() string {
	lo, hi := "-inf", "+inf"
	if r.min != nil {
		lo = strconv.FormatFloat(*r.min, 'f', -1, 64)
	}
	if r.max != nil {
		hi = strconv.FormatFloat(*r.max, 'f', -1, 64)
	}
	return fmt.Sprintf("%s in [%s, %s]", r.field, lo, hi)
}

type andPred struct{ ps []Predicate }

// And matches when every sub-predicate matches (vacuously true when empty).
func And(ps ...Predicate) Predicate {
	if len(ps) == 1 {
		return ps[0]
	}
	return andPred{ps: ps}
}

func (a andPred) Match(p docmodel.Properties) bool {
	for _, sub := range a.ps {
		if !sub.Match(p) {
			return false
		}
	}
	return true
}

func (a andPred) String() string { return joinPreds(a.ps, " AND ") }

func joinPreds(ps []Predicate, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
