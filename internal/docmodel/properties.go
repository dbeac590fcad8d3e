package docmodel

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Properties is the JSON-like key/value metadata attached to documents and
// elements. Values are restricted to JSON scalar kinds plus nested maps and
// string slices, mirroring what llmExtract produces.
type Properties map[string]any

// Clone returns a deep copy of the property map.
func (p Properties) Clone() Properties { return p.clone(nil) }

// clone is Clone, each key being keys' copy of it (as it is when keys is
// nil).
func (p Properties) clone(keys *Keys) Properties {
	if p == nil {
		return nil
	}
	cp := make(Properties, len(p))
	for k, v := range p {
		cp[keys.of(k)] = cloneValue(v)
	}
	return cp
}

// Keys is a set of canonical property keys, one string each: the text
// views taken with the same Keys (TextView) keep one copy of a key between
// them, not one per document as a JSON decode makes them. It only grows.
// The zero value is an empty set; Keys is safe for concurrent use.
type Keys struct {
	mu  sync.Mutex
	set map[string]string
}

// of is the set's copy of k, which becomes k's own the first time it is
// asked for (k itself when ks is nil).
func (ks *Keys) of(k string) string {
	if ks == nil {
		return k
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	c, ok := ks.set[k]
	if !ok {
		if ks.set == nil {
			ks.set = make(map[string]string)
		}
		c = strings.Clone(k) // not a slice of something larger
		ks.set[c] = c
	}
	return c
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case Properties:
		return t.Clone()
	case map[string]any:
		return map[string]any(Properties(t).Clone())
	case []string:
		out := make([]string, len(t))
		copy(out, t)
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// Get returns the raw value for key and whether it was present.
func (p Properties) Get(key string) (any, bool) {
	v, ok := p[key]
	return v, ok
}

// String returns the value for key coerced to a string; missing keys and
// nil values yield "".
func (p Properties) String(key string) string {
	v, ok := p[key]
	if !ok || v == nil {
		return ""
	}
	switch t := v.(type) {
	case string:
		return t
	case float64:
		return strconv.FormatFloat(t, 'f', -1, 64)
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case bool:
		return strconv.FormatBool(t)
	default:
		return fmt.Sprintf("%v", t)
	}
}

// Float returns the value for key coerced to float64.
func (p Properties) Float(key string) (float64, bool) {
	v, ok := p[key]
	if !ok {
		return 0, false
	}
	switch t := v.(type) {
	case float64:
		return t, true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// Int returns the value for key coerced to int.
func (p Properties) Int(key string) (int, bool) {
	f, ok := p.Float(key)
	if !ok {
		return 0, false
	}
	return int(f), true
}

// Set assigns key = value, allocating the map if needed, and returns the
// (possibly new) map so callers can use p = p.Set(...).
func (p Properties) Set(key string, value any) Properties {
	if p == nil {
		p = make(Properties)
	}
	p[key] = value
	return p
}

// Merge copies every entry of other into p (other wins on conflict) and
// returns the (possibly new) map.
func (p Properties) Merge(other Properties) Properties {
	if len(other) == 0 {
		return p
	}
	if p == nil {
		p = make(Properties, len(other))
	}
	for k, v := range other {
		p[k] = cloneValue(v)
	}
	return p
}

// JSON renders the properties as compact JSON (keys sorted by
// encoding/json's map ordering).
func (p Properties) JSON() string {
	b, err := json.Marshal(p)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Equal reports deep equality of two property maps.
func (p Properties) Equal(other Properties) bool {
	if len(p) != len(other) {
		return false
	}
	for k, v := range p {
		ov, ok := other[k]
		if !ok || !valueEqual(v, ov) {
			return false
		}
	}
	return true
}

func valueEqual(a, b any) bool {
	switch at := a.(type) {
	case Properties:
		return valueEqualMap(at, b)
	case map[string]any:
		return valueEqualMap(Properties(at), b)
	case []string:
		bt, ok := b.([]string)
		if !ok || len(at) != len(bt) {
			return false
		}
		for i := range at {
			if at[i] != bt[i] {
				return false
			}
		}
		return true
	case []any:
		bt, ok := b.([]any)
		if !ok || len(at) != len(bt) {
			return false
		}
		for i := range at {
			if !valueEqual(at[i], bt[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// valueEqualMap compares a map-shaped value against b, accepting either
// Properties or map[string]any on the right-hand side.
func valueEqualMap(at Properties, b any) bool {
	switch bt := b.(type) {
	case Properties:
		return at.Equal(bt)
	case map[string]any:
		return at.Equal(Properties(bt))
	default:
		return false
	}
}
