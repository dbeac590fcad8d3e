package index

import (
	"strings"
	"testing"

	"aryn/internal/docmodel"
)

func props() docmodel.Properties {
	return docmodel.Properties(nil).
		Set("us_state", "KY").
		Set("aircraft", "Piper PA-38-112").
		Set("injuries", 3).
		Set("year", 2024.0).
		Set("fatal", false).
		Set("nilProp", nil)
}

func TestTermPredicate(t *testing.T) {
	p := props()
	if !Term("us_state", "KY").Match(p) {
		t.Error("exact term should match")
	}
	if !Term("us_state", "ky").Match(p) {
		t.Error("term match should be case-insensitive")
	}
	if Term("us_state", "CA").Match(p) {
		t.Error("wrong value should not match")
	}
	if !Term("injuries", 3).Match(p) {
		t.Error("numeric term should match")
	}
	if !Term("injuries", "3.0").Match(p) {
		t.Error("numeric coercion should match 3 == 3.0")
	}
	if Term("missing", "x").Match(p) {
		t.Error("missing field should not match")
	}
	if Term("nilProp", "x").Match(p) {
		t.Error("nil value should not match")
	}
}

func TestContainsPredicate(t *testing.T) {
	p := props()
	if !Contains("aircraft", "piper").Match(p) {
		t.Error("case-insensitive substring should match")
	}
	if Contains("aircraft", "cessna").Match(p) {
		t.Error("absent substring should not match")
	}
}

func TestRangePredicate(t *testing.T) {
	p := props()
	lo, hi := 2020.0, 2025.0
	if !Range("year", &lo, &hi).Match(p) {
		t.Error("in-range should match")
	}
	if !Range("year", &lo, nil).Match(p) {
		t.Error("open upper bound should match")
	}
	hi2 := 2023.0
	if Range("year", nil, &hi2).Match(p) {
		t.Error("above-max should not match")
	}
	if Range("aircraft", &lo, &hi).Match(p) {
		t.Error("non-numeric field should not match range")
	}
}

func TestBooleanCombinators(t *testing.T) {
	p := props()
	if !And(Term("us_state", "KY"), Contains("aircraft", "Piper")).Match(p) {
		t.Error("AND of matching predicates should match")
	}
	if And(Term("us_state", "KY"), Term("us_state", "CA")).Match(p) {
		t.Error("AND with one failing branch should not match")
	}
	if !And().Match(p) {
		t.Error("empty AND is vacuously true")
	}
}

func TestPredicateStrings(t *testing.T) {
	s := And(Term("a", 1), Contains("b", "x")).String()
	for _, want := range []string{"a == \"1\"", "AND", "b contains \"x\""} {
		if !strings.Contains(s, want) {
			t.Errorf("predicate string missing %q: %s", want, s)
		}
	}
	lo := 1.0
	if got := Range("y", &lo, nil).String(); !strings.Contains(got, "[1, +inf]") {
		t.Errorf("range string = %q", got)
	}
}
