package luna

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"aryn/internal/llm"
)

// parser is the grammar-based semantic parser that serves as the Sim
// model's query-planning skill: it decomposes a natural-language question
// into the logical-operator chain a GPT-4-class planner produces from the
// same prompt (§6.1). Like its LLM counterpart it links question phrases
// to schema fields by lexical affinity — which is exactly how the paper's
// "aircraft manufacturer" misinterpretation arises.
type parser struct {
	schema Schema
}

// monthNames for date filters.
var monthNames = []string{
	"january", "february", "march", "april", "may", "june",
	"july", "august", "september", "october", "november", "december",
}

var accidentNumberRe = regexp.MustCompile(`\b([A-Z]{3}\d{2}[A-Z]{2}\d{3}[A-B]?)\b`)

// Parse converts the question to a logical plan.
func (p *parser) Parse(question string) (*LogicalPlan, error) {
	q := strings.TrimSpace(question)
	q = strings.TrimSuffix(q, "?")
	q = strings.TrimSuffix(q, ".")

	st := &parseState{parser: p, original: question, text: " " + q + " "}
	st.extractAccidentNumber()
	st.lower()
	st.extractFilters()

	ops := st.buildOps()
	if len(ops) == 0 {
		return nil, fmt.Errorf("luna: could not interpret question %q", question)
	}
	// The grammar planner always produces a chain; Chain up-converts it
	// to the DAG IR (the planner LLM emits the DAG JSON form directly).
	return Chain(ops...), nil
}

// parseState tracks the question text as recognized phrases are consumed.
type parseState struct {
	parser   *parser
	original string
	text     string // mutable working copy, space-padded
	filters  []FilterSpec
	llmPreds []string // residual semantic predicates -> llmFilter
	// fragment marks a follow-up fragment, in which referring words point
	// at the previous result instead of naming content.
	fragment bool
}

func (st *parseState) lower() { st.text = strings.ToLower(st.text) }

// consume removes the first occurrence of phrase from the working text.
func (st *parseState) consume(phrase string) bool {
	idx := strings.Index(st.text, phrase)
	if idx < 0 {
		return false
	}
	st.text = st.text[:idx] + " " + st.text[idx+len(phrase):]
	return true
}

func (st *parseState) has(phrase string) bool { return strings.Contains(st.text, phrase) }

func (st *parseState) addFilter(field, kind string, value any) {
	st.filters = append(st.filters, FilterSpec{Field: field, Kind: kind, Value: value})
}

// extractAccidentNumber runs before lower-casing (IDs are uppercase).
func (st *parseState) extractAccidentNumber() {
	if m := accidentNumberRe.FindStringSubmatch(st.text); m != nil {
		st.addFilter("accidentNumber", "term", m[1])
		st.consume(m[1])
	}
}

// extractFilters consumes every condition phrase it recognizes, mapping
// schema-resolvable conditions to property filters and leaving residual
// semantic predicates for llmFilter.
func (st *parseState) extractFilters() {
	// Manufacturer-style phrases: "manufactured by X", "involving X
	// aircraft", "X aircraft".
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`manufactured by (\w+)`),
		regexp.MustCompile(`involving (\w+) aircraft`),
		regexp.MustCompile(`\b(\w+) aircraft\b`),
	} {
		if m := re.FindStringSubmatch(st.text); m != nil {
			name := m[1]
			if !genericAircraftWord[name] {
				st.addFilter("aircraft", "contains", strings.Title(name))
				st.consume(m[0])
			}
		}
	}

	// US states.
	for _, f := range []string{"new hampshire", "new jersey", "new mexico", "new york",
		"north carolina", "north dakota", "south carolina", "south dakota",
		"rhode island", "west virginia"} {
		if st.has(f) {
			st.addFilter("us_state", "term", llm.StateAbbrev(f))
			st.consume(f)
		}
	}
	for _, tok := range strings.Fields(st.text) {
		if ab := llm.StateAbbrev(tok); ab != "" && len(tok) > 2 {
			st.addFilter("us_state", "term", ab)
			st.consume(tok)
		}
	}

	// Months and years.
	for _, m := range monthNames {
		if st.has(" " + m + " ") {
			st.addFilter("month", "term", strings.Title(m))
			st.consume(" " + m + " ")
			break
		}
	}
	if m := regexp.MustCompile(`\b(19|20)\d{2}\b`).FindString(st.text); m != "" {
		year, _ := strconv.Atoi(m)
		st.addFilter("year", "term", year)
		st.consume(m)
	}

	// Damage levels.
	switch {
	case st.has("substantial damage") || st.has("substantially damaged"):
		st.addFilter("aircraftDamage", "term", "Substantial")
		st.consume("substantial damage")
		st.consume("substantially damaged")
		st.consume("that resulted in")
		st.consume("resulted in")
		st.consume("with")
	case st.has("destroyed"):
		st.addFilter("aircraftDamage", "term", "Destroyed")
		st.consume("destroyed")
	case st.has("minor damage"):
		st.addFilter("aircraftDamage", "term", "Minor")
		st.consume("minor damage")
	}

	// Engine count.
	switch {
	case st.has("single engine") || st.has("single-engine"):
		st.addFilter("engines", "term", 1)
		st.consume("single engine")
		st.consume("single-engine")
	case st.has("twin engine") || st.has("twin-engine"):
		st.addFilter("engines", "term", 2)
		st.consume("twin engine")
		st.consume("twin-engine")
	}

	// Aircraft category.
	for _, cat := range []string{"helicopter", "glider", "airplane"} {
		if st.has(cat) {
			st.addFilter("aircraftCategory", "term", strings.Title(cat))
			st.consume(cat + "s")
			st.consume(cat)
			st.consume("involved")
			break
		}
	}

	// Injuries.
	if st.has("fatal") {
		st.addFilter("fatalities", "gte", 1)
		st.consume("fatalities")
		st.consume("fatal")
		st.consume("resulted in")
		st.consume("involved")
	}

	// Pilot certificate.
	if st.has("student pilot") {
		st.addFilter("pilotCertificate", "contains", "Student")
		st.consume("student pilots")
		st.consume("student pilot")
	}

	// Light conditions.
	if st.has("at night") || st.has("night") {
		st.addFilter("conditionOfLight", "term", "Night")
		st.consume("at night")
		st.consume("night")
	}

	// Meteorological conditions.
	if st.has("instrument meteorological") || st.has(" imc") {
		st.addFilter("conditions", "contains", "IMC")
		st.consume("instrument meteorological conditions")
		st.consume("instrument meteorological")
		st.consume(" imc")
	}

	// Regulation part.
	if m := regexp.MustCompile(`part (\d+)`).FindStringSubmatch(st.text); m != nil {
		st.addFilter("flightConductedUnder", "contains", "Part "+m[1])
		st.consume(m[0])
		st.consume("conducted under")
		st.consume("flights were")
	}

	// Weather causation maps to the extracted boolean.
	if st.has("weather") {
		st.addFilter("weather_related", "term", true)
		st.consume("caused by weather")
		st.consume("weather related")
		st.consume("weather-related")
		st.consume("weather")
	}

	// Residual semantic predicates (birds, engine problems, fire, water,
	// midair …) become llmFilter questions over the document text.
	st.collectResiduals()
}

var genericAircraftWord = map[string]bool{
	"single": true, "twin": true, "the": true, "all": true, "of": true,
	"these": true, "those": true, "any": true, "each": true, "that": true,
	"involving": true, "most": true, "by": true, "in": true, "an": true,
	"a": true, "and": true, "for": true, "or": true, "to": true,
	"many": true, "engine": true, "which": true, "was": true, "were": true,
	"involved": true, "destroyed": true, "damaged": true, "with": true,
}

// scaffolding words that are question structure, not content.
var scaffold = map[string]bool{
	"how": true, "many": true, "what": true, "which": true, "was": true,
	"were": true, "there": true, "in": true, "the": true, "of": true,
	"by": true, "broken": true, "down": true, "breakdown": true, "each": true,
	"per": true, "incidents": true, "incident": true, "accidents": true,
	"accident": true, "occurred": true, "involved": true, "involving": true,
	"due": true, "to": true, "a": true, "an": true, "and": true, "or": true,
	"most": true, "common": true, "commonly": true, "total": true, "number": true,
	"list": true, "summarize": true, "themes": true, "fraction": true,
	"percentage": true, "average": true, "maximum": true, "minimum": true,
	"recorded": true, "aircraft": true, "that": true, "resulted": true,
	"with": true, "top": true, "three": true, "two": true, "had": true,
	"state": true, "states": true, "did": true, "is": true, "are": true,
	"caused": true, "causes": true, "cause": true, "causal": true, "flights": true,
	"conducted": true, "under": true, "knots": true, "numbers": true,
	"registration": true, "pilots": true, "time": true, "flight": true,
	"parts": true, "part": true, "damaged": true, "probable": true,
	"results": true, "result": true, "show": true, "only": true,
	"about": true, "now": true,
}

// referring words in a follow-up fragment ("only those involving birds")
// stand for the previous result: scaffold there, content in a question.
var referring = map[string]bool{
	"those": true, "these": true, "them": true, "ones": true, "it": true,
}

// collectResiduals turns the remaining content words into llmFilter
// predicates, one per contiguous phrase.
func (st *parseState) collectResiduals() {
	// Only the condition-bearing part of the question matters; aggregate
	// targets ("most commonly damaged part") are parsed separately, so
	// strip aggregate clauses before collecting residuals.
	text := st.text
	for _, re := range aggregateClauseRes {
		text = re.ReplaceAllString(text, " ")
	}
	var cur []string
	flush := func() {
		if len(cur) > 0 {
			st.llmPreds = append(st.llmPreds, strings.Join(cur, " "))
			cur = nil
		}
	}
	for _, tok := range strings.Fields(text) {
		tok = strings.Trim(tok, ",.;:()'\"")
		if tok == "" || scaffold[tok] || st.fragment && referring[tok] {
			flush()
			continue
		}
		cur = append(cur, tok)
	}
	flush()
}

var aggregateClauseRes = []*regexp.Regexp{
	regexp.MustCompile(`most commonly? [a-z ]*?(part|parts)[a-z ]*`),
	regexp.MustCompile(`top \w+ most common [a-z ]*`),
	regexp.MustCompile(`average [a-z ]*`),
	regexp.MustCompile(`maximum [a-z ]*`),
	regexp.MustCompile(`breakdown of [a-z ]* by [a-z ]*`),
	regexp.MustCompile(`broken down by [a-z ]*`),
	regexp.MustCompile(`in each [a-z ]*`),
	regexp.MustCompile(`probable cause`),
}

// resolveField links a phrase to the schema field with the greatest token
// overlap — the planner's schema-linking step. Ties resolve to the first
// field in schema order, which is how "aircraft manufacturer" lands on the
// wrong field (§7.2, query-interpretation error).
func (p *parser) resolveField(phrase string) string {
	ptoks := fieldTokens(phrase)
	if len(ptoks) == 0 {
		return ""
	}
	best, bestScore := "", 0
	for _, f := range p.schema.Fields {
		ftoks := fieldTokens(f.Name)
		score := 0
		for _, t := range ptoks {
			for _, ft := range ftoks {
				if t == ft || strings.HasPrefix(ft, t) || strings.HasPrefix(t, ft) {
					score++
					break
				}
			}
		}
		if score > bestScore {
			best, bestScore = f.Name, score
		}
	}
	return best
}

func fieldTokens(s string) []string {
	var sb strings.Builder
	runes := []rune(s)
	for i, r := range runes {
		if r >= 'A' && r <= 'Z' && i > 0 && runes[i-1] >= 'a' && runes[i-1] <= 'z' {
			sb.WriteByte(' ')
		}
		if r == '_' || r == '-' {
			sb.WriteByte(' ')
		} else {
			sb.WriteRune(r)
		}
	}
	var out []string
	for _, t := range strings.Fields(strings.ToLower(sb.String())) {
		if t == "us" || t == "of" || t == "the" || t == "number" {
			continue
		}
		out = append(out, t)
	}
	return out
}

// buildOps assembles the operator chain from the parsed pieces.
func (st *parseState) buildOps() []LogicalOp {
	var ops []LogicalOp
	q := strings.ToLower(st.original)
	// Breakdown detection runs over the post-consumption text so that
	// consumed condition phrases ("caused by weather") cannot masquerade
	// as group-by clauses.
	clean := strings.Join(strings.Fields(st.text), " ")

	// Exploratory "find/search" questions root at semantic search over the
	// chunk index (queryVectorDatabase) and list the matches.
	if m := regexp.MustCompile(`^(?:find|search for|retrieve) (?:reports |documents |incidents )?(?:about |mentioning |similar to |related to )?(.{3,})$`).FindStringSubmatch(q); m != nil {
		k := 10
		ops = append(ops,
			LogicalOp{Op: OpQueryVectorDatabase, Query: strings.TrimSpace(m[1]), K: k},
			LogicalOp{Op: OpProject, ProjectFields: []string{"accidentNumber"}})
		return ops
	}

	// Retrieval root: metadata scan with the recognized filters.
	ops = append(ops, LogicalOp{Op: OpQueryDatabase, Filters: st.filters})
	for _, pred := range st.llmPreds {
		ops = append(ops, LogicalOp{Op: OpLLMFilter, Question: "Does the document indicate " + pred + "?"})
	}

	switch {
	case strings.Contains(q, "fraction") || strings.Contains(q, "percentage"):
		// "what fraction of <base> were <pred>": the base filters are already
		// applied; the last llmFilter (if any) becomes the numerator.
		frac := LogicalOp{Op: OpFraction}
		if n := len(ops); n > 1 && ops[n-1].Op == OpLLMFilter {
			frac.Question = ops[n-1].Question
			ops = ops[:n-1]
		}
		ops = append(ops, frac)

	case hasMode(q):
		// "most common X" / "top N most common X".
		target, k := modeTarget(q)
		field := st.parser.resolveField(target)
		if field == "" || strings.Contains(target, "part") {
			// Not in the schema: extract at query time (§2's flagship
			// example — parts data extracted with semantic operators).
			field = "damaged_part"
			ops = append(ops, LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: field, Type: "string"}}})
		}
		ops = append(ops,
			LogicalOp{Op: OpGroupByAggregate, Key: field, Agg: "count"},
			LogicalOp{Op: OpTopK, Field: "value", K: k})

	case strings.Contains(q, "average ") || strings.Contains(q, "maximum ") || strings.Contains(q, "minimum "):
		agg, target := aggTarget(q)
		field := st.parser.resolveField(target)
		if field == "" {
			field = target
		}
		ops = append(ops, LogicalOp{Op: OpGroupByAggregate, Key: "", Agg: agg, ValueField: field})

	case breakdownField(clean) != "" && st.parser.resolveField(breakdownField(clean)) != "":
		field := st.parser.resolveField(breakdownField(clean))
		ops = append(ops, LogicalOp{Op: OpGroupByAggregate, Key: field, Agg: "count"})

	case regexp.MustCompile(`^which [a-z ]+ had the most`).MatchString(q):
		m := regexp.MustCompile(`^which ([a-z ]+?) had the most`).FindStringSubmatch(q)
		field := st.parser.resolveField(m[1])
		ops = append(ops,
			LogicalOp{Op: OpGroupByAggregate, Key: field, Agg: "count"},
			LogicalOp{Op: OpTopK, Field: "value", K: 1})

	case strings.HasPrefix(q, "how many") || strings.HasPrefix(q, "count"):
		ops = append(ops, LogicalOp{Op: OpCount})

	case strings.HasPrefix(q, "which") || strings.HasPrefix(q, "list"):
		field := "accidentNumber"
		if strings.Contains(q, "registration") {
			field = "registration"
		}
		ops = append(ops, LogicalOp{Op: OpProject, ProjectFields: []string{field}})

	case strings.Contains(q, "probable cause"):
		ops = append(ops, LogicalOp{Op: OpProject, ProjectFields: []string{"probable_cause"}})

	case strings.HasPrefix(q, "summarize"):
		ops = append(ops, LogicalOp{Op: OpLLMGenerate, Instruction: st.original})

	case strings.HasPrefix(q, "cluster"):
		k := 5
		if m := regexp.MustCompile(`(\d+) clusters?`).FindStringSubmatch(q); m != nil {
			k, _ = strconv.Atoi(m[1])
		}
		ops = append(ops, LogicalOp{Op: OpLLMCluster, K: k})

	default:
		// Open question: retrieve and generate.
		ops = append(ops, LogicalOp{Op: OpLLMGenerate, Instruction: st.original})
	}
	return ops
}

func hasMode(q string) bool {
	return strings.Contains(q, "most common") || strings.Contains(q, "most frequently")
}

var topNWords = map[string]int{"two": 2, "three": 3, "four": 4, "five": 5, "ten": 10}

func modeTarget(q string) (target string, k int) {
	k = 1
	if m := regexp.MustCompile(`top (\w+) most common(?:ly)? ([a-z _]+?)(?: with| in| of|$)`).FindStringSubmatch(q); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil {
			k = n
		} else if n, ok := topNWords[m[1]]; ok {
			k = n
		}
		return strings.TrimSpace(m[2]), k
	}
	if m := regexp.MustCompile(`most common(?:ly)? ([a-z _]+?)(?: of| in| with|$)`).FindStringSubmatch(q); m != nil {
		return strings.TrimSpace(m[1]), k
	}
	return "damaged_part", k
}

func aggTarget(q string) (agg, target string) {
	for word, a := range map[string]string{"average": "avg", "maximum": "max", "minimum": "min"} {
		if m := regexp.MustCompile(word + ` ([a-z _]+?)(?: of| in| recorded|,|$)`).FindStringSubmatch(q); m != nil {
			return a, strings.TrimSpace(m[1])
		}
	}
	return "avg", ""
}

func breakdownField(q string) string {
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`broken down by ([a-z _]+?)(?:\?|$)`),
		regexp.MustCompile(`breakdown of [a-z ]+ by ([a-z _]+?)(?:\?|$)`),
		regexp.MustCompile(`in each ([a-z _]+?)(?:\?|$)`),
		regexp.MustCompile(`\bper ([a-z _]+?)(?:\?|$)`),
		regexp.MustCompile(`^how many [a-z ]+ by ([a-z _]+?)(?:\?|$)`),
	} {
		if m := re.FindStringSubmatch(strings.ToLower(q)); m != nil {
			return strings.TrimSpace(m[1])
		}
	}
	return ""
}
