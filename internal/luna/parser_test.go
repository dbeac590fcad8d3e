package luna

import (
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{Fields: []SchemaField{
		{Name: "accidentNumber", Type: "string"},
		{Name: "aircraft", Type: "string", Examples: []string{"Cessna 172S", "Piper PA-18"}},
		{Name: "aircraftCategory", Type: "string"},
		{Name: "aircraftDamage", Type: "string", Examples: []string{"Substantial"}},
		{Name: "conditionOfLight", Type: "string"},
		{Name: "conditions", Type: "string"},
		{Name: "engines", Type: "int"},
		{Name: "fatalities", Type: "int"},
		{Name: "flightConductedUnder", Type: "string"},
		{Name: "flightTime", Type: "int"},
		{Name: "month", Type: "string"},
		{Name: "pilotCertificate", Type: "string"},
		{Name: "registration", Type: "string"},
		{Name: "us_state", Type: "string"},
		{Name: "weather_related", Type: "bool"},
		{Name: "windSpeed", Type: "int"},
		{Name: "year", Type: "int"},
		{Name: "probable_cause", Type: "string"},
	}}
}

func parse(t *testing.T, q string) *LogicalPlan {
	t.Helper()
	p := &parser{schema: testSchema()}
	plan, err := p.Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	if err := Validate(plan, testSchema()); err != nil {
		t.Fatalf("plan for %q invalid: %v\n%s", q, err, plan.String())
	}
	return plan
}

func TestParseCountWithStateFilter(t *testing.T) {
	plan := parse(t, "How many incidents were there in Kentucky?")
	if plan.Nodes[0].Op != OpQueryDatabase {
		t.Fatal("plan must root at queryDatabase")
	}
	found := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "us_state" && f.Value == "KY" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing state filter: %s", plan.String())
	}
	if plan.Nodes[len(plan.Nodes)-1].Op != OpCount {
		t.Errorf("terminal should be count: %s", plan.String())
	}
}

func TestParseResidualBecomesLLMFilter(t *testing.T) {
	plan := parse(t, "How many incidents were due to engine problems?")
	hasFilter := false
	for _, op := range plan.Nodes {
		if op.Op == OpLLMFilter && strings.Contains(op.Question, "engine problems") {
			hasFilter = true
		}
	}
	if !hasFilter {
		t.Errorf("engine problems should become llmFilter: %s", plan.String())
	}
}

func TestParseBreakdown(t *testing.T) {
	plan := parse(t, "How many incidents were there by state?")
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpGroupByAggregate || last.Key != "us_state" || last.Agg != "count" {
		t.Errorf("breakdown plan wrong: %s", plan.String())
	}
	plan2 := parse(t, "How many incidents occurred in each month?")
	last2 := plan2.Nodes[len(plan2.Nodes)-1]
	if last2.Key != "month" {
		t.Errorf("month breakdown: %s", plan2.String())
	}
}

func TestParseConsumedPhrasesDontBecomeBreakdowns(t *testing.T) {
	// "caused by weather" must map to the weather_related filter, not a
	// group-by on a "weather" field.
	plan := parse(t, "How many incidents were caused by weather?")
	for _, op := range plan.Nodes {
		if op.Op == OpGroupByAggregate {
			t.Errorf("spurious breakdown: %s", plan.String())
		}
	}
	found := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "weather_related" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing weather_related filter: %s", plan.String())
	}
}

func TestParseManufacturerMisinterpretation(t *testing.T) {
	// The paper's §7.2 interpretation error: "aircraft manufacturer" is not
	// a schema field, and schema linking lands on the lexically-closest
	// field rather than planning a query-time extraction.
	plan := parse(t, "What was the breakdown of incident causes by aircraft manufacturer?")
	var group *LogicalOp
	for i := range plan.Nodes {
		if plan.Nodes[i].Op == OpGroupByAggregate {
			group = &plan.Nodes[i].LogicalOp
		}
	}
	if group == nil {
		t.Fatalf("no group op: %s", plan.String())
	}
	if group.Key == "manufacturer" {
		t.Error("schema has no manufacturer field; linking should have misfired")
	}
	if !strings.HasPrefix(group.Key, "aircraft") {
		t.Errorf("expected aircraft-ish mislink, got %q", group.Key)
	}
}

func TestParseModeWithQueryTimeExtraction(t *testing.T) {
	plan := parse(t, "In incidents involving Piper aircraft, what was the most commonly damaged part of the aircraft?")
	var hasExtract, hasContains bool
	for _, op := range plan.Nodes {
		if op.Op == OpLLMExtract {
			for _, f := range op.Fields {
				if f.Name == "damaged_part" {
					hasExtract = true
				}
			}
		}
	}
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "aircraft" && f.Kind == "contains" && f.Value == "Piper" {
			hasContains = true
		}
	}
	if !hasExtract || !hasContains {
		t.Errorf("piper mode plan: extract=%v contains=%v\n%s", hasExtract, hasContains, plan.String())
	}
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpTopK || last.K != 1 {
		t.Errorf("terminal: %s", plan.String())
	}
}

func TestParseTopThree(t *testing.T) {
	plan := parse(t, "What are the top three most commonly damaged parts in single-engine aircraft incidents?")
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpTopK || last.K != 3 {
		t.Errorf("topK k=3 expected: %s", plan.String())
	}
	engineFilter := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "engines" && f.Value == 1 {
			engineFilter = true
		}
		if f.Field == "aircraft" {
			t.Errorf("spurious aircraft filter from 'single-engine aircraft': %s", plan.String())
		}
	}
	if !engineFilter {
		t.Errorf("missing engines=1 filter: %s", plan.String())
	}
}

func TestParseFraction(t *testing.T) {
	plan := parse(t, "What fraction of incidents that resulted in substantial damage were due to engine problems?")
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpFraction || !strings.Contains(last.Question, "engine") {
		t.Errorf("fraction terminal: %s", plan.String())
	}
	damage := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "aircraftDamage" && f.Value == "Substantial" {
			damage = true
		}
	}
	if !damage {
		t.Errorf("base filter missing: %s", plan.String())
	}
}

func TestParseAggregates(t *testing.T) {
	plan := parse(t, "What was the average total flight time of pilots in fatal incidents?")
	var agg *LogicalOp
	for i := range plan.Nodes {
		if plan.Nodes[i].Op == OpGroupByAggregate {
			agg = &plan.Nodes[i].LogicalOp
		}
	}
	if agg == nil || agg.Agg != "avg" || agg.ValueField != "flightTime" || agg.Key != "" {
		t.Fatalf("avg plan: %s", plan.String())
	}
	fatal := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "fatalities" && f.Kind == "gte" {
			fatal = true
		}
	}
	if !fatal {
		t.Errorf("fatal filter missing: %s", plan.String())
	}

	plan2 := parse(t, "What was the maximum wind speed recorded, in knots?")
	var agg2 *LogicalOp
	for i := range plan2.Nodes {
		if plan2.Nodes[i].Op == OpGroupByAggregate {
			agg2 = &plan2.Nodes[i].LogicalOp
		}
	}
	if agg2 == nil || agg2.Agg != "max" || agg2.ValueField != "windSpeed" {
		t.Fatalf("max plan: %s", plan2.String())
	}
}

func TestParseListProjection(t *testing.T) {
	plan := parse(t, "List the registration numbers of aircraft that were destroyed.")
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpProject || last.ProjectFields[0] != "registration" {
		t.Errorf("projection: %s", plan.String())
	}
	destroyed := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "aircraftDamage" && f.Value == "Destroyed" {
			destroyed = true
		}
	}
	if !destroyed {
		t.Errorf("destroyed filter missing: %s", plan.String())
	}
}

func TestParseAccidentLookup(t *testing.T) {
	plan := parse(t, "What was the probable cause of accident CEN24LA100?")
	acc := false
	for _, f := range plan.Nodes[0].Filters {
		if f.Field == "accidentNumber" && f.Value == "CEN24LA100" {
			acc = true
		}
	}
	if !acc {
		t.Errorf("accident filter missing: %s", plan.String())
	}
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpProject || last.ProjectFields[0] != "probable_cause" {
		t.Errorf("cause projection missing: %s", plan.String())
	}
}

func TestParseArgmax(t *testing.T) {
	plan := parse(t, "Which state had the most incidents?")
	ops := plan.Nodes
	if ops[len(ops)-1].Op != OpTopK || ops[len(ops)-2].Op != OpGroupByAggregate || ops[len(ops)-2].Key != "us_state" {
		t.Errorf("argmax plan: %s", plan.String())
	}
}

func TestParseCategoryAndRegulation(t *testing.T) {
	plan := parse(t, "How many incidents involved helicopters?")
	if f := plan.Nodes[0].Filters; len(f) != 1 || f[0].Field != "aircraftCategory" || f[0].Value != "Helicopter" {
		t.Errorf("helicopter filter: %s", plan.String())
	}
	plan2 := parse(t, "How many flights were conducted under Part 137?")
	if f := plan2.Nodes[0].Filters; len(f) != 1 || f[0].Field != "flightConductedUnder" {
		t.Errorf("part filter: %s", plan2.String())
	}
}

func TestParseSummarizeAndDefault(t *testing.T) {
	plan := parse(t, "Summarize the common themes in incidents involving bird strikes.")
	last := plan.Nodes[len(plan.Nodes)-1]
	if last.Op != OpLLMGenerate {
		t.Errorf("summarize terminal: %s", plan.String())
	}
}

func TestResolveFieldTieBreaksBySchemaOrder(t *testing.T) {
	p := &parser{schema: testSchema()}
	// "aircraft manufacturer" overlaps aircraft, aircraftCategory, and
	// aircraftDamage equally on "aircraft"; first schema field wins.
	if got := p.resolveField("aircraft manufacturer"); got != "aircraft" {
		t.Errorf("resolveField = %q", got)
	}
	if got := p.resolveField("number of engines"); got != "engines" {
		t.Errorf("resolveField(engines) = %q", got)
	}
	if got := p.resolveField("zzz qqq"); got != "" {
		t.Errorf("unresolvable phrase should be empty, got %q", got)
	}
}

func TestParseSemanticSearch(t *testing.T) {
	plan := parse(t, "Find reports about carburetor icing during climb")
	if plan.Nodes[0].Op != OpQueryVectorDatabase {
		t.Fatalf("semantic search should root at queryVectorDatabase: %s", plan.String())
	}
	if !strings.Contains(plan.Nodes[0].Query, "carburetor icing") {
		t.Errorf("query text lost: %q", plan.Nodes[0].Query)
	}
	if plan.Nodes[1].Op != OpProject {
		t.Errorf("search should list matches: %s", plan.String())
	}
}
