package docmodel

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// row builds a row from alternating keys and values.
func row(kv ...any) Properties {
	var p Properties
	for i := 0; i < len(kv); i += 2 {
		p = p.Set(kv[i].(string), kv[i+1])
	}
	return p
}

// asMap is p's pairs as the map[string]any the row stands in for.
func asMap(p Properties) map[string]any {
	if p == nil {
		return nil
	}
	m := make(map[string]any, len(p))
	for k, v := range p.All() {
		m[k] = v
	}
	return m
}

// sorted reports whether p's keys are strictly increasing.
func sorted(p Properties) bool {
	for i := 1; i < len(p); i++ {
		if p[i-1].key >= p[i].key {
			return false
		}
	}
	return true
}

func TestPropertiesCoercions(t *testing.T) {
	p := row(
		"s", "hello", "f", 3.5, "i", 7, "b", true,
		"bs", "True", "fs", " 2.25 ", "nil", nil,
	)
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
		t.Errorf("Set on nil row failed: %v %v", v, ok)
	}
}

// Set keeps the row sorted and each key once, whatever order keys come in.
func TestPropertiesSetKeepsKeyOrder(t *testing.T) {
	var p Properties
	for i, k := range []string{"m", "c", "x", "a", "c", "z", "", "m"} {
		p = p.Set(k, i)
	}
	var keys []string
	for k := range p.All() {
		keys = append(keys, k)
	}
	if want := []string{"", "a", "c", "m", "x", "z"}; !slices.Equal(keys, want) {
		t.Errorf("keys = %q, want %q", keys, want)
	}
	if v, _ := p.Int("c"); v != 4 {
		t.Errorf("c = %d, want the later Set's 4", v)
	}
	if v, _ := p.Int("m"); v != 7 {
		t.Errorf("m = %d, want the later Set's 7", v)
	}
}

func TestPropertiesMerge(t *testing.T) {
	a := row("x", 1, "y", "keep")
	b := row("x", 2, "z", []string{"a"})
	a = a.Merge(b)
	if v, _ := a.Int("x"); v != 2 {
		t.Error("merge should overwrite")
	}
	if a.String("y") != "keep" {
		t.Error("merge dropped existing key")
	}
	if !sorted(a) || len(a) != 3 {
		t.Errorf("merged row %v: want 3 sorted pairs", a)
	}
	// Deep copy on merge: mutating b's slice must not affect a.
	bz, _ := b.Get("z")
	bz.([]string)[0] = "mutated"
	if az, _ := a.Get("z"); az.([]string)[0] != "a" {
		t.Error("merge should deep-copy values")
	}
	// Merge leaves p as it was.
	if c := a.Merge(row("y", "new")); c.String("y") != "new" || a.String("y") != "keep" {
		t.Error("merge should return a new row and leave p alone")
	}
	var nilP Properties
	if got := nilP.Merge(nil); got != nil {
		t.Error("nil.Merge(nil) should stay nil")
	}
}

func TestPropertiesEqualAndClone(t *testing.T) {
	p := row(
		"s", "v",
		"list", []string{"a", "b"},
		"anyl", []any{1.0, "x"},
		"nest", row("inner", true),
		"m", map[string]any{"k": "v"},
	)
	c := p.Clone()
	if !p.Equal(c) {
		t.Fatal("clone should be Equal")
	}
	cn, _ := c.Get("nest")
	c = c.Set("nest", cn.(Properties).Set("inner", false))
	if p.Equal(c) {
		t.Fatal("deep mutation should break equality")
	}
	if pn, _ := p.Get("nest"); pn.(Properties).String("inner") != "true" {
		t.Fatal("clone was shallow")
	}
	// A nested row and a nested map with the same pairs are equal.
	if !row("o", row("k", "v")).Equal(row("o", map[string]any{"k": "v"})) {
		t.Error("a nested row should equal the map with its pairs")
	}
}

func TestPropertiesEqualQuick(t *testing.T) {
	// Clone always yields Equal rows for string-keyed scalar properties.
	f := func(keys []string, vals []int64) bool {
		var p Properties
		for i, k := range keys {
			if i < len(vals) {
				p = p.Set(k, vals[i])
			}
		}
		return sorted(p) && p.Equal(p.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertiesJSON(t *testing.T) {
	p := row("a", 1.0, "b", "x")
	s := p.JSON()
	if s != `{"a":1,"b":"x"}` {
		t.Errorf("JSON = %s", s)
	}
	// Go values a map holds, nested rows included, print as in the map.
	p = row("<k>", "a&b", "n", 7, "l", []string{"x"}, "nest", row("z", nil, "y", 1e21), "e", Properties{})
	want, err := json.Marshal(map[string]any{"<k>": "a&b", "n": 7, "l": []string{"x"},
		"nest": map[string]any{"z": nil, "y": 1e21}, "e": map[string]any{}})
	if err != nil {
		t.Fatal(err)
	}
	if p.JSON() != string(want) {
		t.Errorf("JSON = %s, want the map's %s", p.JSON(), want)
	}
}

// The row reads and writes the JSON encoding/json does for the map with its
// pairs: FuzzPropertiesJSON keeps the map as the reference.
func FuzzPropertiesJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`null`,
		`{"a":1,"b":"x"}`,
		`{"nest":{"z":[1,"two",null,{"k":true}],"a":{}},"list":[],"n":null}`,
		`{"n":-0.0,"big":1e21,"small":1e-7,"int":12345678901234567890,"f":3.25}`,
		`{"html":"<a href=\"x\">&amp;</a>","esc":"tab\tnl\n\\"}`,
		"{\"sep\":\"\u2028\u2029\",\"\u2028\":1}",
		`{"":"empty key","é":"non-ASCII","日本":"語","<>&":"html key","\u007f":1}`,
		`{"dup":1,"other":2,"dup":"last wins"}`,
		`{"bad\ud800":"lone surrogate"}`,
		"{\"\xff\":\"invalid UTF-8\xfe\",\"\xfe\":1}",
		`[1,2]`,
		`"not an object"`,
		`{"unterminated":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]any
		var p Properties
		errM, errP := json.Unmarshal(data, &m), json.Unmarshal(data, &p)
		if (errM == nil) != (errP == nil) {
			t.Fatalf("Unmarshal errors differ: map %v, row %v", errM, errP)
		}
		if errM != nil {
			return
		}
		if (m == nil) != (p == nil) || len(m) != len(p) || !sorted(p) || !reflect.DeepEqual(asMap(p), m) {
			t.Fatalf("Unmarshal: row %#v, map %#v", p, m)
		}
		// Into a target that has pairs already: an object joins them.
		m2, p2 := map[string]any{"a": "kept", "~": 1.0}, row("a", "kept", "~", 1.0)
		if errM, errP := json.Unmarshal(data, &m2), json.Unmarshal(data, &p2); errM != nil || errP != nil ||
			(m2 == nil) != (p2 == nil) || !sorted(p2) || !reflect.DeepEqual(asMap(p2), m2) {
			t.Fatalf("Unmarshal into pairs: row %#v (%v), map %#v (%v)", p2, errP, m2, errM)
		}
		for _, escape := range []bool{true, false} {
			wantM, errM := encode(m, escape)
			gotP, errP := encode(p, escape)
			if errM != nil || errP != nil || !bytes.Equal(gotP, wantM) {
				t.Fatalf("Marshal (escape HTML %v): row %s (%v), map %s (%v)", escape, gotP, errP, wantM, errM)
			}
		}
		// As a document field: omitempty drops an empty row as it does an
		// empty map.
		type withRow struct {
			P Properties `json:"p,omitempty"`
		}
		type withMap struct {
			P map[string]any `json:"p,omitempty"`
		}
		gotP, errP := json.Marshal(withRow{p})
		wantM, errM := json.Marshal(withMap{m})
		if errM != nil || errP != nil || !bytes.Equal(gotP, wantM) {
			t.Fatalf("Marshal as a field: row %s (%v), map %s (%v)", gotP, errP, wantM, errM)
		}
	})
}

// encode is v's JSON as an Encoder writes it, HTML escaping on or off.
func encode(v any, escapeHTML bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	err := enc.Encode(v)
	return buf.Bytes(), err
}
