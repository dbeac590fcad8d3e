package luna

// Native fuzz targets for the plan surface the network exposes: plan-JSON
// decoding (ParsePlan accepts raw client bytes), DAG validation, and the
// rule list (which must preserve validity and never add LLM work for ANY
// valid plan, not just the ones the equivalence suite enumerates). Seed corpora live in testdata/fuzz/<Target>/; CI runs a
// short -fuzztime smoke over each target.

import (
	"testing"

	"aryn/internal/docset"
	"aryn/internal/index"
)

// fuzzSeeds is the shared seed mix: well-formed chain and DAG plans, the
// optimizer's special shapes (chains, hoists, cascades, a scoped extract
// beside a whole-document one, which fuse only once both are scoped), and
// malformed inputs that must fail cleanly — among them the retired
// {"ops": [...]} form, which decodes to a plan with no nodes and must be
// rejected.
var fuzzSeeds = []string{
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"count"}],"output":"n2"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a fire?"},{"id":"n3","inputs":["n2"],"op":"count"}],"output":"n3"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"a?"},{"id":"n3","inputs":["n2"],"op":"llmFilter","question":"b?"},{"id":"n4","inputs":["n3"],"op":"basicFilter","filters":[{"field":"engines","kind":"term","value":1}]},{"id":"n5","inputs":["n4"],"op":"count"}],"output":"n5"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmExtract","fields":[{"name":"damaged_part","type":"string"}]},{"id":"n3","inputs":["n2"],"op":"groupByAggregate","key":"damaged_part","agg":"count"}],"output":"n3"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmExtract","fields":[{"name":"damaged_part","type":"string"}],"sections":1},{"id":"n3","inputs":["n2"],"op":"llmExtract","fields":[{"name":"phase","type":"string"}]},{"id":"n4","inputs":["n3"],"op":"groupByAggregate","key":"damaged_part","agg":"count"}],"output":"n4"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmExtract","fields":[{"name":"damaged_part","type":"string"}],"sections":-1}],"output":"n2"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilterCascade","question":"q?","low":0.05,"high":0.9},{"id":"n3","inputs":["n2"],"op":"count"}],"output":"n3"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase","filters":[{"field":"us_state","kind":"term","value":"KY"}]},{"id":"n2","op":"queryDatabase"},{"id":"n3","inputs":["n1","n2"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber","join_kind":"inner","prefix":"right"},{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`,
	`{"nodes":[{"id":"a","op":"queryDatabase"},{"id":"b","inputs":["a"],"op":"llmFilter","question":"x?"},{"id":"c","inputs":["a"],"op":"llmFilter","question":"y?"},{"id":"d","inputs":["b","c"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},{"id":"e","inputs":["d"],"op":"count"}],"output":"e"}`,
	`{"nodes":[{"id":"n1","op":"queryVectorDatabase","query":"bird strike","k":5},{"id":"n2","inputs":["n1"],"op":"limit","k":1}],"output":"n2"}`,
	`{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1","n1"],"op":"join"}],"output":"n2"}`,
	`{"nodes":[{"id":"n1","inputs":["n1"],"op":"count"}],"output":"n1"}`,
	`{"nodes":[{"id":"n1","op":"teleport"}],"output":"n1"}`,
	`{"nodes":[{"id":"n1","op":"llmFilterCascade","question":"q?","low":2,"high":1}],"output":"n1"}`,
	`not json at all`,
	`{"ops":[{"op":"queryDatabase"},{"op":"count"}]}`,
	`{"nodes":[]}`,
	`{}`,
}

// FuzzPlanDecode asserts ParsePlan never panics, and that anything it
// accepts re-encodes to a stable fixed point: JSON() must decode again
// and re-encode byte-identically (the wire-stability invariant).
func FuzzPlanDecode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		_ = plan.String()
		re := plan.JSON()
		back, err := ParsePlan(re)
		if err != nil {
			t.Fatalf("re-decode of accepted plan failed: %v\nencoded: %s", err, re)
		}
		if again := back.JSON(); again != re {
			t.Fatalf("JSON() is not a fixed point:\nfirst:  %s\nsecond: %s", re, again)
		}
	})
}

// FuzzValidatePlan asserts validation never panics and is deterministic:
// the same plan validates the same way twice.
func FuzzValidatePlan(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	schema := testSchema()
	ex := &Executor{EC: docset.NewContext(), Store: index.NewStore()}
	f.Fuzz(func(t *testing.T, data string) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		first := Validate(plan, schema)
		second := Validate(plan, schema)
		if (first == nil) != (second == nil) {
			t.Fatalf("validation not deterministic: %v then %v", first, second)
		}
		// The compiler trusts the structural check: whatever it admits must
		// lower without a panic, and a valid plan without an error.
		if _, err := ex.Compile(plan); first == nil && err != nil {
			t.Fatalf("valid plan does not compile: %v\n%s", err, plan.JSON())
		}
	})
}

// FuzzCostRewrite asserts the rule list is total and safe on every valid
// plan, with and without the optimize phase: no panic, the output still
// validates, the number of LLM-predicate evaluations per document cannot
// grow (cascade conversion is 1:1; hoists only move nodes; fusion and
// duplicate removal only delete them), and the driver stops at
// a fixpoint — running it again over its own output changes nothing.
func FuzzCostRewrite(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	schema := testSchema()
	phases := []struct {
		name  string
		apply func(*LogicalPlan) *LogicalPlan
	}{
		{"rewrite", Rewrite},
		{"optimize", Optimize},
	}
	f.Fuzz(func(t *testing.T, data string) {
		plan, err := ParsePlan(data)
		if err != nil || Validate(plan, schema) != nil {
			return
		}
		for _, ph := range phases {
			out := ph.apply(plan)
			if err := Validate(out, schema); err != nil {
				t.Fatalf("%s: output fails validation: %v\ninput: %s\noutput: %s", ph.name, err, plan.JSON(), out.JSON())
			}
			if got, want := countLLMNodes(out), countLLMNodes(plan); got > want {
				t.Fatalf("%s added LLM nodes: %d > %d\ninput: %s\noutput: %s", ph.name, got, want, plan.JSON(), out.JSON())
			}
			// Deterministic: same input, same output bytes.
			if second := ph.apply(plan); second.JSON() != out.JSON() {
				t.Fatalf("%s not deterministic:\nfirst:  %s\nsecond: %s", ph.name, out.JSON(), second.JSON())
			}
			if again := ph.apply(out); again.JSON() != out.JSON() {
				t.Fatalf("%s not idempotent:\nonce:  %s\ntwice: %s", ph.name, out.JSON(), again.JSON())
			}
		}
	})
}

// countLLMNodes counts nodes that dispatch per-document LLM calls.
func countLLMNodes(p *LogicalPlan) int {
	q := p.Clone()
	n := 0
	for _, node := range q.Nodes {
		switch node.Op {
		case OpLLMFilter, OpLLMFilterCascade, OpLLMExtract, OpLLMCluster, OpFraction:
			n++
		}
	}
	return n
}
