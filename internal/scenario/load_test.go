package scenario

import (
	"context"
	"testing"

	"aryn/internal/server"
)

// TestRunLoadMixedScenarios drives every standard mix through RunLoad
// against an in-process server: traffic must happen and no execution or
// request may fail (sheds are by contract and counted apart). `make test`
// runs it under -race, which is the concurrency check on the serving
// path.
func TestRunLoadMixedScenarios(t *testing.T) {
	params := shortParams()
	params.BurstSize = 2
	c, _ := newHarness(t, server.Config{}, params)
	ctx := context.Background()
	for _, mix := range Mixes() {
		t.Run(mix.Name, func(t *testing.T) {
			report, err := RunLoad(ctx, c, mix, LoadOptions{MaxExecutions: 12, Workers: 4, Seed: 1})
			if err != nil {
				t.Fatalf("mix %s: %v", mix.Name, err)
			}
			if report.Executions != 12 || report.Requests == 0 {
				t.Errorf("mix %s produced no traffic: %+v", mix.Name, report)
			}
			if report.FailedExecs > 0 || report.Failed > 0 {
				t.Errorf("mix %s had failures in-process: %+v", mix.Name, report)
			}
		})
	}
}

// TestRunLoadRejectsUnknownScenario pins that a bad mix is a
// configuration error, reported before any load starts.
func TestRunLoadRejectsUnknownScenario(t *testing.T) {
	c, _ := newHarness(t, server.Config{}, shortParams())
	_, err := RunLoad(context.Background(), c, Mix{
		Name:    "bogus",
		Weights: map[string]int{"no-such-scenario": 1},
	}, LoadOptions{MaxExecutions: 1})
	if err == nil {
		t.Fatal("mix referencing an unknown scenario must fail fast")
	}
}
