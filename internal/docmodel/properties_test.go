package docmodel

import (
	"testing"
	"testing/quick"
)

func TestPropertiesCoercions(t *testing.T) {
	p := Properties{
		"s": "hello", "f": 3.5, "i": 7, "b": true,
		"bs": "True", "fs": " 2.25 ", "nil": nil,
	}
	if p.String("s") != "hello" || p.String("f") != "3.5" || p.String("b") != "true" {
		t.Errorf("String coercion: %q %q %q", p.String("s"), p.String("f"), p.String("b"))
	}
	if p.String("nil") != "" || p.String("missing") != "" {
		t.Error("nil/missing should stringify to empty")
	}
	if f, ok := p.Float("fs"); !ok || f != 2.25 {
		t.Errorf("Float(fs) = %v, %v", f, ok)
	}
	if i, ok := p.Int("i"); !ok || i != 7 {
		t.Errorf("Int(i) = %v, %v", i, ok)
	}
	if _, ok := p.Float("s"); ok {
		t.Error("Float of non-numeric string should fail")
	}
}

func TestPropertiesSetOnNil(t *testing.T) {
	var p Properties
	p = p.Set("k", 1)
	if v, ok := p.Int("k"); !ok || v != 1 {
		t.Errorf("Set on nil map failed: %v %v", v, ok)
	}
}

func TestPropertiesMerge(t *testing.T) {
	a := Properties{"x": 1, "y": "keep"}
	b := Properties{"x": 2, "z": []string{"a"}}
	a = a.Merge(b)
	if v, _ := a.Int("x"); v != 2 {
		t.Error("merge should overwrite")
	}
	if a.String("y") != "keep" {
		t.Error("merge dropped existing key")
	}
	// Deep copy on merge: mutating b's slice must not affect a.
	b["z"].([]string)[0] = "mutated"
	if a["z"].([]string)[0] != "a" {
		t.Error("merge should deep-copy values")
	}
	var nilP Properties
	if got := nilP.Merge(nil); got != nil {
		t.Error("nil.Merge(nil) should stay nil")
	}
}

func TestPropertiesEqualAndClone(t *testing.T) {
	p := Properties{
		"s":    "v",
		"list": []string{"a", "b"},
		"anyl": []any{1.0, "x"},
		"nest": Properties{"inner": true},
		"m":    map[string]any{"k": "v"},
	}
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	c["nest"].(Properties)["inner"] = false
	if p.Equal(c) {
		t.Fatal("deep mutation should break equality")
	}
	if p["nest"].(Properties)["inner"] != true {
		t.Fatal("clone was shallow")
	}
}

func TestPropertiesEqualQuick(t *testing.T) {
	// Clone always yields Equal maps for string-keyed scalar properties.
	f := func(keys []string, vals []int64) bool {
		p := Properties{}
		for i, k := range keys {
			if i < len(vals) {
				p[k] = vals[i]
			}
		}
		return p.Equal(p.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertiesJSON(t *testing.T) {
	p := Properties{"a": 1.0, "b": "x"}
	s := p.JSON()
	if s != `{"a":1,"b":"x"}` {
		t.Errorf("JSON = %s", s)
	}
}
