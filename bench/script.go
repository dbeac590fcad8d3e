package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"aryn/internal/ntsb"
	"aryn/internal/qa"
)

type itemKind int

const (
	kindQuery itemKind = iota // POST /v1/query, JSON or SSE by request number
	kindPlan                  // POST /v1/plan
	kindChat                  // two turns of POST /v1/chat
)

// item is one entry of a workload's script. The program under test only
// ever sees body (and followUp): inputs generated from the seed, with no
// trace of which workload sent them.
type item struct {
	kind  itemKind
	label string
	// question is the natural-language text ("" for plan-only items) and
	// plan the DAG-form plan of an execute-by-plan item.
	question string
	plan     json.RawMessage
	rag      bool
	// body is the request body of a kindQuery or kindPlan item.
	body []byte
	// followUp is the second turn of a kindChat item.
	followUp string
}

type queryBody struct {
	Question string          `json:"question,omitempty"`
	Plan     json.RawMessage `json:"plan,omitempty"`
	RAG      bool            `json:"rag,omitempty"`
	Optimize *bool           `json:"optimize,omitempty"`
}

// optimizeFlag is the per-request "optimize" override: absent unless the
// workload asks for the optimize phase.
func optimizeFlag(on bool) *bool {
	if !on {
		return nil
	}
	return &on
}

func questionItem(label, question string, optimize bool) item {
	return item{
		kind: kindQuery, label: label, question: question,
		body: mustJSON(queryBody{Question: question, Optimize: optimizeFlag(optimize)}),
	}
}

func planItem(label, plan string, optimize bool) item {
	return item{
		kind: kindQuery, label: label, plan: json.RawMessage(plan),
		body: mustJSON(queryBody{Plan: json.RawMessage(plan), Optimize: optimizeFlag(optimize)}),
	}
}

// followUps are the second turns of chat items: referring fragments the
// conversation layer resolves against the first turn's plan.
var followUps = []string{
	"what about destroyed aircraft?",
	"what about in California?",
	"and what about helicopters?",
	"what about incidents at night?",
}

// serveWarmScript is the 30 benchmark questions over /v1/query, with one
// item in eight turned into a /v1/plan call and one in eight into a
// two-turn chat.
func serveWarmScript(corpus *ntsb.Corpus) []item {
	var script []item
	for i, q := range qa.Questions(corpus) {
		it := questionItem(fmt.Sprintf("q%02d", q.ID), q.Text, false)
		switch i % 8 {
		case 3:
			it.kind = kindPlan
		case 7:
			it.kind = kindChat
			it.followUp = followUps[(i/8)%len(followUps)]
		}
		script = append(script, it)
	}
	return script
}

// semanticOps are the per-document semantic operators: a plan holding one
// makes a model call per document it touches.
var semanticOps = map[string]bool{
	"llmFilter": true, "llmFilterCascade": true, "llmExtract": true,
	"llmCluster": true, "llmGenerate": true,
}

// callsModelPerDoc reports whether a plan node calls the model once per
// document: a semantic operator, or a fraction whose numerator is a
// natural-language predicate (it runs an llmFilter while shaping the
// answer, outside the plan's operators).
func (n planNodeShape) callsModelPerDoc() bool {
	return semanticOps[n.Op] || n.Op == "fraction" && n.Question != ""
}

// optimizerMix is the standard optimizer query mix of the repository
// (bench_optimizer_test.go), in DAG form: the plan shapes each rewrite
// targets. Single predicates for cascades, chains for reordering, trailing
// basic filters for hoisting, a join for multi-branch plans.
var optimizerMix = []struct{ name, plan string }{
	{"count-fires", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"n3","inputs":["n2"],"op":"count"}],"output":"n3"}`},
	{"state-fuel", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention fuel?"},
		{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"us_state","kind":"term","value":"AZ"}]},
		{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"twin-hoist", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention a pilot?"},
		{"id":"n3","inputs":["n2"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"n4","inputs":["n3"],"op":"basicFilter","filters":[{"field":"engines","kind":"term","value":2}]},
		{"id":"n5","inputs":["n4"],"op":"count"}],"output":"n5"}`},
	{"group-by-state", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention ice?"},
		{"id":"n3","inputs":["n2"],"op":"groupByAggregate","key":"us_state","agg":"count"}],"output":"n3"}`},
	{"destroyed-birds", `{"nodes":[
		{"id":"n1","op":"queryDatabase"},
		{"id":"n2","inputs":["n1"],"op":"llmFilter","question":"Does the report mention birds?"},
		{"id":"n3","inputs":["n2"],"op":"basicFilter","filters":[{"field":"aircraftDamage","kind":"term","value":"Destroyed"}]},
		{"id":"n4","inputs":["n3"],"op":"count"}],"output":"n4"}`},
	{"join-filters", `{"nodes":[
		{"id":"a","op":"queryDatabase"},
		{"id":"b","inputs":["a"],"op":"llmFilter","question":"Does the report mention a fire?"},
		{"id":"c","inputs":["a"],"op":"llmFilter","question":"Does the report mention fuel?"},
		{"id":"d","inputs":["b","c"],"op":"join","left_key":"accidentNumber","right_key":"accidentNumber"},
		{"id":"e","inputs":["d"],"op":"count"}],"output":"e"}`},
}

// planHas asks /v1/plan for the plan the system makes of a question item
// and reports whether any node satisfies match: the plan is inspected, not
// the question's ID.
func planHas(ctx context.Context, c *client, it item, match func(planNodeShape) bool) (bool, error) {
	var reply planReply
	if _, err := c.postJSON(ctx, "/v1/plan", it.body, &reply); err != nil {
		return false, fmt.Errorf("plan %s: %w", it.label, err)
	}
	shape, err := parseShape(reply.Plan.Rewritten)
	if err != nil {
		return false, fmt.Errorf("plan %s: %w", it.label, err)
	}
	return slices.ContainsFunc(shape.Nodes, match), nil
}

// analyticsColdScript is the benchmark questions whose plan holds a
// per-document semantic operator plus the optimizer mix, every request
// with "optimize": true.
func analyticsColdScript(ctx context.Context, c *client, corpus *ntsb.Corpus) ([]item, error) {
	var script []item
	for _, q := range qa.Questions(corpus) {
		it := questionItem(fmt.Sprintf("q%02d", q.ID), q.Text, true)
		semantic, err := planHas(ctx, c, it, func(n planNodeShape) bool { return semanticOps[n.Op] })
		if err != nil {
			return nil, err
		}
		if semantic {
			script = append(script, it)
		}
	}
	for _, m := range optimizerMix {
		script = append(script, planItem(m.name, m.plan, true))
	}
	return script, nil
}

// readerScript is the serve-warm script without the questions whose plan
// calls the model once per document. Beside ingest those would spend
// the window re-running model calls over every job's new documents, and
// the reader would finish some sixty requests: too few for a percentile.
// What is left still plans (a cold planning call after every Prepare swap,
// since the schema in the prompt changed), scans and aggregates the store
// the jobs are writing to.
func readerScript(ctx context.Context, c *client, corpus *ntsb.Corpus) ([]item, error) {
	var script []item
	for _, it := range serveWarmScript(corpus) {
		dear, err := planHas(ctx, c, questionItem(it.label, it.question, false), planNodeShape.callsModelPerDoc)
		if err != nil {
			return nil, err
		}
		if !dear {
			script = append(script, it)
		}
	}
	return script, nil
}

// Topic pools of the retrieval-heavy workload: what happened × where it
// happened gives 20 × 12 phrasings for the seed to draw from.
var (
	topicEvents = []string{
		"engine failure", "loss of engine power", "fuel exhaustion", "bird strike",
		"landing gear collapse", "hard landing", "runway excursion", "loss of control",
		"carburetor icing", "a post-crash fire", "a midair collision", "a stall and spin",
		"a wire strike", "gusting crosswind", "a tailwind landing", "fuel contamination",
		"a bounced landing", "controlled flight into terrain", "a propeller strike", "an aborted takeoff",
	}
	topicContexts = []string{
		"during takeoff", "on final approach", "in cruise flight", "during a go-around",
		"at night", "in instrument conditions", "during an instructional flight", "over water",
		"in mountainous terrain", "during an agricultural flight", "after maintenance", "in gusty wind",
	}
	topicKeywords = []string{
		"engine power", "fuel tank", "landing gear", "crosswind", "bird", "fire", "carburetor",
		"propeller", "runway", "stall", "student pilot", "helicopter", "night", "water", "wing", "terrain",
	}
	topicStates = []string{"CA", "TX", "FL", "AK", "AZ", "CO", "WA", "GA"}
)

// retrievalScript is n "Find reports about <topic>" questions (each plans
// to queryVectorDatabase k=10), n/4 keyword-and-filter queryDatabase plans
// sent as {"plan":…}, and one topic in eight asked again through the RAG
// baseline. The seed picks the topics.
func retrievalScript(rng *rand.Rand, n int) []item {
	var topics []string
	for _, e := range topicEvents {
		for _, c := range topicContexts {
			topics = append(topics, e+" "+c)
		}
	}
	rng.Shuffle(len(topics), func(i, j int) { topics[i], topics[j] = topics[j], topics[i] })
	if n > len(topics) {
		n = len(topics)
	}
	var script []item
	for i, topic := range topics[:n] {
		question := "Find reports about " + topic
		script = append(script, questionItem(fmt.Sprintf("find%02d", i), question, false))
		if i%8 == 7 {
			script = append(script, item{
				kind: kindQuery, label: fmt.Sprintf("rag%02d", i), question: question, rag: true,
				body: mustJSON(queryBody{Question: question, RAG: true}),
			})
		}
		if i%4 == 3 {
			kw := topicKeywords[rng.Intn(len(topicKeywords))]
			state := topicStates[rng.Intn(len(topicStates))]
			plan := fmt.Sprintf(`{"nodes":[
				{"id":"n1","op":"queryDatabase","keyword":%q,"filters":[{"field":"us_state","kind":"term","value":%q}]},
				{"id":"n2","inputs":["n1"],"op":"limit","k":10},
				{"id":"n3","inputs":["n2"],"op":"project","project_fields":["accidentNumber"]}],"output":"n3"}`, kw, state)
			script = append(script, planItem(fmt.Sprintf("kw%02d", i), plan, false))
		}
	}
	return script
}

// clientOrder is the order in which client id walks a script of n items:
// the script's own cyclic order, entered at a point the seed picks. A
// seeded shuffle would do on a warm cache, but under a thrashing one the
// order decides which neighbours share model calls, so each shuffle would
// be a workload of its own.
func clientOrder(seed int64, id, n int) []int {
	start := rand.New(rand.NewSource(seed + int64(id))).Intn(n)
	order := make([]int, n)
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}
