package luna

import (
	"context"
	"strings"
	"testing"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/index"
	"aryn/internal/llm"
)

func TestPlanStringAndDescribe(t *testing.T) {
	plan := Chain(
		LogicalOp{Op: OpQueryDatabase, Keyword: "engine", Filters: []FilterSpec{{Field: "us_state", Kind: "term", Value: "KY"}}},
		LogicalOp{Op: OpQueryVectorDatabase, Query: "bird strikes", K: 5},
		LogicalOp{Op: OpBasicFilter, Filters: []FilterSpec{{Field: "engines", Kind: "gte", Value: 1}}},
		LogicalOp{Op: OpLLMFilter, Question: "birds?"},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "damaged_part"}}},
		LogicalOp{Op: OpLLMExtract, Fields: []llm.FieldSpec{{Name: "phase"}}, Sections: 1},
		LogicalOp{Op: OpGroupByAggregate, Key: "us_state", Agg: "count"},
		LogicalOp{Op: OpGroupByAggregate, Key: "", Agg: "avg", ValueField: "flightTime"},
		LogicalOp{Op: OpLLMCluster, K: 3},
		LogicalOp{Op: OpTopK, Field: "value", K: 2},
		LogicalOp{Op: OpCount},
		LogicalOp{Op: OpFraction, Question: "engine problems?"},
		LogicalOp{Op: OpLimit, K: 10},
		LogicalOp{Op: OpProject, ProjectFields: []string{"registration"}},
		LogicalOp{Op: OpLLMGenerate, Instruction: "summarize"},
		LogicalOp{Op: "mystery"},
	)
	s := plan.String()
	for _, want := range []string{
		`queryDatabase(keyword="engine", us_state term KY)`,
		`queryVectorDatabase("bird strikes", k=5)`,
		"basicFilter(engines gte 1)",
		`llmFilter("birds?")`,
		"llmExtract(damaged_part)",
		"llmExtract(phase, sections=1)",
		"groupByAggregate(by=us_state, count)",
		"groupByAggregate(by=, avg(flightTime))",
		"llmCluster(k=3)",
		"topK(value, k=2)",
		"count()",
		`fraction("engine problems?")`,
		"limit(10)",
		"project(registration)",
		`llmGenerate("summarize")`,
		"mystery(?)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	empty := LogicalOp{Op: OpQueryDatabase}
	if empty.Describe() != "queryDatabase(scan all)" {
		t.Errorf("empty scan describe = %q", empty.Describe())
	}
}

func TestExecutorRangeFiltersAndCluster(t *testing.T) {
	store := clusterStore(t)
	ec := docset.NewContext(docset.WithLLM(llm.NewSim(1)))
	ex := &Executor{EC: ec, Store: store}

	// gte/lte filters exercise compileFilters' numeric paths.
	res, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase, Filters: []FilterSpec{
			{Field: "hours", Kind: "gte", Value: 100},
			{Field: "hours", Kind: "lte", Value: "300"},
		}},
		LogicalOp{Op: OpCount},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Number != 2 {
		t.Errorf("range count = %v", res.Answer.Number)
	}

	// llmCluster terminal produces a label table.
	res2, err := ex.Run(context.Background(), Chain(
		LogicalOp{Op: OpQueryDatabase},
		LogicalOp{Op: OpLLMCluster, K: 2},
	), StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Answer.Kind != AnswerTable || len(res2.Answer.Table) == 0 {
		t.Errorf("cluster answer = %+v", res2.Answer)
	}
}

func clusterStore(t *testing.T) *index.Store {
	t.Helper()
	store := index.NewStore()
	for i, spec := range []struct {
		hours int
		text  string
	}{
		{50, "engine failure power loss engine cylinder"},
		{150, "engine power loss fuel engine"},
		{250, "crosswind landing runway wind gust"},
		{400, "gusting wind runway excursion wind"},
	} {
		d := docmodel.New(string(rune('A' + i)))
		d.SetProperty("hours", spec.hours)
		d.Text = spec.text
		if err := store.PutDocument(d); err != nil {
			t.Fatal(err)
		}
	}
	return store
}
