package core

import (
	"context"
	"slices"
	"testing"

	"aryn/internal/luna"
)

// TestCascadeFalseDrops measures the one approximate rule, insertCascades,
// where it is approximate: on the 103 reports of the benchmark corpus
// (seed 42) and the six filter questions its graded pass plans, how many
// documents the cascade's drop rung removes that the model, asked, keeps.
// Every other rule is exact; this one's error is pinned here so the next
// change to the proxy or its band reads as a number.
func TestCascadeFalseDrops(t *testing.T) {
	sys := ingested(t, Config{Seed: 7, Parallelism: 8}, 100)
	kept := func(svc *luna.Service, question string) (ids []string, dropped int64) {
		res, err := svc.RunPlan(context.Background(), question, filterChain(question))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Docs {
			ids = append(ids, d.ID)
		}
		return ids, res.Exec.Nodes[1].Runtime.ProxyDropped
	}
	for _, tc := range []struct {
		topic         string
		maxFalseDrops int
	}{
		{"engine problems", 0},
		{"post-crash fire", 0},
		{"midair collisions", 0},
		{"loss", 6},
		{"engine power", 0},
		{"birds", 1},
	} {
		question := "Does the document indicate " + tc.topic + "?"
		exact, _ := kept(sys.QueryService(), question)
		cascaded, dropped := kept(sys.QueryService().WithOptimize(true), question)
		falseDrops := 0
		for _, id := range exact {
			if !slices.Contains(cascaded, id) {
				falseDrops++
			}
		}
		if len(cascaded)+falseDrops != len(exact) {
			t.Errorf("%s: the cascade kept %d documents, the model %d, %d of them dropped: it kept one the model rejects",
				tc.topic, len(cascaded), len(exact), falseDrops)
		}
		if falseDrops > tc.maxFalseDrops {
			t.Errorf("%s: %d of the %d documents the drop rung removed are ones the model keeps, want at most %d",
				tc.topic, falseDrops, dropped, tc.maxFalseDrops)
		}
		t.Logf("%-18s dropped %3d of 103, %d of them kept by the model (%d kept in all)", tc.topic, dropped, falseDrops, len(exact))
	}
}
