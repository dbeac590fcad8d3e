package docmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Properties is the JSON-like key/value metadata attached to documents and
// elements: a row of key/value pairs sorted by key, each key once. Values
// are restricted to JSON scalar kinds plus nested objects and string
// slices, mirroring what llmExtract produces.
//
// A row has value semantics, like a slice under append: Set and Merge
// return the row to keep, so callers write p = p.Set(k, v), and a row that
// two holders share is read-only (Set may write into its array). Get, String,
// Float and Int find a key by binary search, All visits the pairs in key
// order, and MarshalJSON / UnmarshalJSON read and write the bytes
// encoding/json does for a map[string]any with the same contents, so a
// document's JSON does not show which of the two it holds. The row of a
// stored text view (TextView) is exactly as long as its pairs, and its keys
// are the store's interned strings (Keys).
type Properties []property

// property is one pair of a Properties row.
type property struct {
	key   string
	value any
}

// find is where key is in p, or where it would go, and whether it is there.
func (p Properties) find(key string) (int, bool) {
	i, j := 0, len(p)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p[h].key < key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(p) && p[i].key == key
}

// All visits the pairs in key order.
func (p Properties) All() iter.Seq2[string, any] {
	return func(yield func(string, any) bool) {
		for _, kv := range p {
			if !yield(kv.key, kv.value) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the row.
func (p Properties) Clone() Properties { return p.clone(nil) }

// clone is Clone, each key being keys' copy of it (as it is when keys is
// nil). The copy is exactly as long as p.
func (p Properties) clone(keys *Keys) Properties {
	if p == nil {
		return nil
	}
	cp := make(Properties, len(p))
	for i, kv := range p {
		cp[i] = property{keys.of(kv.key), cloneValue(kv.value)}
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
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = cloneValue(e)
		}
		return out
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
	if i, ok := p.find(key); ok {
		return p[i].value, true
	}
	return nil, false
}

// String returns the value for key coerced to a string; missing keys and
// nil values yield "".
func (p Properties) String(key string) string {
	v, ok := p.Get(key)
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
	v, ok := p.Get(key)
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

// Set assigns key = value and returns the row to keep: p itself when key
// was there, else p with the pair inserted in key order (a new array when
// p's is full), so callers write p = p.Set(...).
func (p Properties) Set(key string, value any) Properties {
	i, ok := p.find(key)
	if ok {
		p[i].value = value
		return p
	}
	return slices.Insert(p, i, property{key, value})
}

// Merge returns a new row with p's pairs and copies of other's (other wins
// on conflict); p itself when other is empty.
func (p Properties) Merge(other Properties) Properties {
	if len(other) == 0 {
		return p
	}
	out := make(Properties, 0, len(p)+len(other))
	i := 0
	for _, kv := range other {
		for i < len(p) && p[i].key < kv.key {
			out = append(out, p[i])
			i++
		}
		if i < len(p) && p[i].key == kv.key {
			i++
		}
		out = append(out, property{kv.key, cloneValue(kv.value)})
	}
	return append(out, p[i:]...)
}

// JSON renders the properties as compact JSON (keys in order, as
// encoding/json renders a map).
func (p Properties) JSON() string {
	b, err := json.Marshal(p)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// MarshalJSON writes p as encoding/json writes a map[string]any with its
// pairs: an object with the keys in order, null for a nil row. Each key and
// value goes through one Encoder with HTML escaping off; the caller's
// encoder escapes <, > and & in what MarshalJSON returns when it is set to,
// as it would in a map's keys and strings.
func (p Properties) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	put := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		buf.Truncate(buf.Len() - 1) // Encode ends a value with a newline
		return nil
	}
	buf.WriteByte('{')
	for i, kv := range p {
		if i > 0 {
			buf.WriteByte(',')
		}
		if err := put(kv.key); err != nil {
			return nil, err
		}
		buf.WriteByte(':')
		if err := put(kv.value); err != nil {
			return nil, err
		}
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON reads an object into p as encoding/json reads one into a
// map[string]any: the last of duplicate keys wins, the pairs join those p
// has, and null leaves a nil row.
func (p *Properties) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	switch {
	case m == nil:
		*p = nil
	case len(*p) == 0:
		*p = rowOf(m)
	default:
		*p = p.Merge(rowOf(m))
	}
	return nil
}

// rowOf is m's pairs as a row, sharing m's values; never nil.
func rowOf(m map[string]any) Properties {
	p := make(Properties, 0, len(m))
	for k, v := range m {
		p = append(p, property{k, v})
	}
	slices.SortFunc(p, func(a, b property) int { return strings.Compare(a.key, b.key) })
	return p
}

// Equal reports deep equality of two rows.
func (p Properties) Equal(other Properties) bool {
	if len(p) != len(other) {
		return false
	}
	for i, kv := range p {
		if kv.key != other[i].key || !valueEqual(kv.value, other[i].value) {
			return false
		}
	}
	return true
}

func valueEqual(a, b any) bool {
	switch at := a.(type) {
	case Properties, map[string]any:
		ar, _ := asRow(at)
		br, ok := asRow(b)
		return ok && ar.Equal(br)
	case []string:
		bt, ok := b.([]string)
		return ok && slices.Equal(at, bt)
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

// asRow is an object-shaped value as a row: Properties as it is, or a
// map[string]any's pairs.
func asRow(v any) (Properties, bool) {
	switch t := v.(type) {
	case Properties:
		return t, true
	case map[string]any:
		return rowOf(t), true
	default:
		return nil, false
	}
}
