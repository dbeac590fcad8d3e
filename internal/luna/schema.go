package luna

import (
	"fmt"
	"sort"
	"strings"

	"aryn/internal/index"
)

// SchemaField describes one queryable property: name, type, and example
// values drawn from the data (§6.1: "for each schema field, we include a
// short description as well as a few example values").
type SchemaField struct {
	Name        string   `json:"name"`
	Type        string   `json:"type"` // string | int | float | bool
	Description string   `json:"description,omitempty"`
	Examples    []string `json:"examples,omitempty"`
}

// Schema is the DocSet schema handed to the planner. It always includes
// the implicit "text-representation" pseudo-field (the full document
// content reachable via llmFilter/llmExtract).
type Schema struct {
	Fields []SchemaField `json:"fields"`
}

// InferSchema derives the schema from the documents stored in the index:
// every property name with its observed type and up to three sample
// values, alphabetically ordered. It only reads, so it runs over the
// store's shared zero-clone snapshots — planning never copies the corpus.
func InferSchema(store *index.Store) Schema {
	type agg struct {
		typ      string
		examples []string
		seen     map[string]bool
	}
	fields := map[string]*agg{}
	for _, d := range store.Documents() {
		// A row is in key order: example collection caps at three values,
		// and the planner prompt must be byte-identical across runs.
		for k, v := range d.Properties.All() {
			if v == nil {
				continue
			}
			a := fields[k]
			if a == nil {
				a = &agg{seen: map[string]bool{}}
				fields[k] = a
			}
			t := typeName(v)
			switch {
			case a.typ == "":
				a.typ = t
			case a.typ != t:
				a.typ = "string" // mixed types degrade to string
			}
			if len(a.examples) == 3 {
				continue // a field with its three examples needs no more formatting
			}
			ex := fmt.Sprintf("%v", v)
			if len(ex) > 60 {
				ex = ex[:59] + "…"
			}
			if !a.seen[ex] {
				a.seen[ex] = true
				a.examples = append(a.examples, ex)
			}
		}
	}
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	schema := Schema{}
	for _, n := range names {
		a := fields[n]
		schema.Fields = append(schema.Fields, SchemaField{Name: n, Type: a.typ, Examples: a.examples})
	}
	return schema
}

func typeName(v any) string {
	switch v.(type) {
	case bool:
		return "bool"
	case float64, float32:
		return "float"
	case int, int64:
		return "int"
	default:
		return "string"
	}
}

// PromptBlock renders the schema section of the planning prompt.
func (s Schema) PromptBlock() string {
	var sb strings.Builder
	sb.WriteString("SCHEMA:\n")
	for _, f := range s.Fields {
		fmt.Fprintf(&sb, "- %s (%s)", f.Name, f.Type)
		if f.Description != "" {
			sb.WriteString(": " + f.Description)
		}
		if len(f.Examples) > 0 {
			sb.WriteString(" e.g. " + strings.Join(f.Examples, " ; "))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("- text-representation (string): the complete textual content of each document\n")
	return sb.String()
}

// parseSchemaBlock reads a schema back out of a planning prompt — the
// planner skill's view of what fields exist. It must round-trip
// PromptBlock.
func parseSchemaBlock(prompt string) Schema {
	idx := strings.Index(prompt, "SCHEMA:\n")
	if idx < 0 {
		return Schema{}
	}
	var s Schema
	for _, line := range strings.Split(prompt[idx+len("SCHEMA:\n"):], "\n") {
		if !strings.HasPrefix(line, "- ") {
			break
		}
		line = strings.TrimPrefix(line, "- ")
		name, rest, ok := strings.Cut(line, " (")
		if !ok {
			continue
		}
		typ, tail, _ := strings.Cut(rest, ")")
		if name == "text-representation" {
			continue
		}
		f := SchemaField{Name: strings.TrimSpace(name), Type: strings.TrimSpace(typ)}
		if _, exs, ok := strings.Cut(tail, "e.g. "); ok {
			for _, ex := range strings.Split(exs, " ; ") {
				f.Examples = append(f.Examples, strings.TrimSpace(ex))
			}
		}
		s.Fields = append(s.Fields, f)
	}
	return s
}
