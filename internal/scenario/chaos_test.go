package scenario

import (
	"context"
	"testing"

	"aryn/internal/server"
)

// TestRunLoadChaosMix drives the opt-in chaos mix through RunLoad against
// the in-process harness (whose injector is wired and exposed). The
// degradation contract: fault-scripting executions and the background
// one-shot queries they sabotage must all complete without a single
// failed request — degraded 200s, never 500s.
func TestRunLoadChaosMix(t *testing.T) {
	c, _ := newHarness(t, server.Config{Fault: sharedInj}, shortParams())
	report, err := RunLoad(context.Background(), c, ChaosMix(), LoadOptions{MaxExecutions: 8, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatalf("chaos mix: %v", err)
	}
	if report.Executions != 8 || report.Requests == 0 {
		t.Fatalf("chaos mix produced no traffic: %+v", report)
	}
	if report.FailedExecs > 0 || report.Failed > 0 {
		t.Errorf("chaos mix had failures: %+v — the contract is degraded answers, never errors", report)
	}
}

// TestChaosMixIsOptIn pins that chaos stays out of the default mix list
// (it needs a server with the fault endpoint) and that every scenario it
// names is registered.
func TestChaosMixIsOptIn(t *testing.T) {
	for _, m := range Mixes() {
		if m.Name == "chaos" {
			t.Fatal("chaos mix must not be part of the default Mixes()")
		}
	}
	for name := range ChaosMix().Weights {
		if _, ok := Get(name); !ok {
			t.Errorf("chaos mix references unregistered scenario %q", name)
		}
	}
}
