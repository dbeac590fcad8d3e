package luna

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// optimizerMixPlans is the six-plan optimizer mix (the shapes each
// optimize-phase rule targets; TestOptimizerEquivalence runs them end to
// end and holds them to a 30% LLM-call cut).
var optimizerMixPlans = []struct{ name, plan string }{
	{"count-fires", `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a fire?"},{"id":"n3","inputs":["n2"],"op":"count"}],"output":"n3"}`},
	{"state-fuel", `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention fuel?"},{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"us_state","kind":"term","value":"AZ"}]},{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"twin-hoist", `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a pilot?"},{"id":"n3","inputs":["n2"],"op":"llmFilter","question":"Does the report mention a fire?"},{"id":"n4","inputs":["n3"],"op":"basicFilter","filters":[{"field":"engines","kind":"term","value":2}]},{"id":"n5","inputs":["n4"],"op":"count"}],"output":"n5"}`},
	{"group-by-state", `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention ice?"},{"id":"n3","inputs":["n2"],"op":"groupByAggregate","key":"us_state","agg":"count"}],"output":"n3"}`},
	{"destroyed-birds", `{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention birds?"},{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"aircraftDamage","kind":"term","value":"Destroyed"}]},{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"join-filters", `{"nodes":[{"id":"a","op":"queryDatabase"},{"id":"b","inputs":["a"],"op":"llmFilter","question":"Does the report mention a fire?"},{"id":"c","inputs":["a"],"op":"llmFilter","question":"Does the report mention fuel?"},{"id":"d","inputs":["b","c"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},{"id":"e","inputs":["d"],"op":"count"}],"output":"e"}`},
}

// TestRuleListMatchesGolden pins what the rule list produces for the 19
// equivalence-suite plans and the six optimizer-mix plans, with and
// without the optimize phase, to testdata/rules_golden.txt: one compact
// plan JSON per "== name phase" header. The chains of two and three
// filters, the chain only a hoist makes adjacent (fuse-across-hoist,
// twin-hoist) and the resubmitted fused plan are the fuseLLMFilters cases,
// the three llmExtract plans (one resubmitted with its own scope) the
// scopeExtracts ones.
func TestRuleListMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/rules_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for i := 0; i+1 < len(lines); i += 2 {
		golden[strings.TrimPrefix(lines[i], "== ")] = lines[i+1]
	}

	type namedPlan struct {
		name string
		plan *LogicalPlan
	}
	var plans []namedPlan
	for _, tc := range equivalencePlans() {
		plans = append(plans, namedPlan{tc.name, tc.plan})
	}
	for _, tc := range optimizerMixPlans {
		plan, err := ParsePlan(tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plans = append(plans, namedPlan{tc.name, plan})
	}
	if len(golden) != 2*len(plans) {
		t.Fatalf("golden file holds %d sections, want %d", len(golden), 2*len(plans))
	}

	for _, tc := range plans {
		rewritten := Rewrite(tc.plan)
		for phase, got := range map[string]*LogicalPlan{
			"rewritten": rewritten,
			"optimized": Optimize(rewritten),
		} {
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if want := golden[tc.name+" "+phase]; string(b) != want {
				t.Errorf("%s %s:\n got: %s\nwant: %s", tc.name, phase, b, want)
			}
		}
		// The whole list from the raw plan lands on the same fixpoint as the
		// optimize phase run over the rewritten plan (what Service does).
		if direct := Optimize(tc.plan); direct.JSON() != Optimize(rewritten).JSON() {
			t.Errorf("%s: Optimize(plan) != Optimize(Rewrite(plan)):\n%s", tc.name, direct.JSON())
		}
	}
}

// TestRulesDoNotModifyInput: an Output-less plan (the tolerant decode
// form) comes back from the rule list with its output inferred, while the
// caller's plan keeps the bytes it had.
func TestRulesDoNotModifyInput(t *testing.T) {
	plan, err := ParsePlan(`{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"q?"},
		{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"engines","kind":"term","value":1}]},
		{"id":"n4","inputs":["n3"],"op":"count"}]}`)
	if err != nil {
		t.Fatal(err)
	}
	before := plan.JSON()
	for name, out := range map[string]*LogicalPlan{
		"Rewrite":  Rewrite(plan),
		"Optimize": Optimize(plan),
	} {
		if out.Output != "n4" {
			t.Errorf("%s: output not inferred on the copy: %q", name, out.Output)
		}
		if after := plan.JSON(); after != before {
			t.Errorf("%s modified its input:\nbefore: %s\nafter:  %s", name, before, after)
		}
	}
}

// ruleRowRE matches one row of the rule table in docs/optimizer.md §2.
var ruleRowRE = regexp.MustCompile("(?m)^\\| (\\d+) \\| `(\\w+)` \\| (always|optimize) \\|")

// TestRuleListMatchesDocs: the documented rule table is the code's list —
// same rules, same order, same phase (the exact rules run always, the
// approximate ones under optimize) — each rule is listed once, and the exact
// rules precede the approximate ones (so Rewrite's output is a prefix of what
// Optimize does in its first round).
func TestRuleListMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/optimizer.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := ruleRowRE.FindAllStringSubmatch(string(doc), -1)
	if len(rows) != len(rules) {
		t.Fatalf("docs/optimizer.md lists %d rules, the code %d", len(rows), len(rules))
	}
	seen := map[string]bool{}
	optimize := false
	for i, r := range rules {
		phase := "always"
		if r.approximate {
			phase = "optimize"
		}
		if row := rows[i]; row[1] != strconv.Itoa(i+1) || row[2] != r.name || row[3] != phase {
			t.Errorf("rule %d: docs say %s `%s` (%s), code says `%s` (%s)", i+1, row[1], row[2], row[3], r.name, phase)
		}
		if seen[r.name] {
			t.Errorf("rule %s listed twice", r.name)
		}
		seen[r.name] = true
		if optimize && !r.approximate {
			t.Errorf("exact rule %s listed after an approximate rule", r.name)
		}
		optimize = r.approximate
	}
}
