package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Scenario is one named, self-describing serving workload.
type Scenario struct {
	// Name identifies the scenario (registry key, mix weights).
	Name string
	// Description says what the scenario exercises, in one line.
	Description string
	// Paper names the paper section (or serving-layer claim) the scenario
	// puts under load.
	Paper string

	// Setup prepares server state (may be nil). Run once per run.
	Setup func(ctx context.Context, c *Client) error
	// Execute performs one unit of the workload — the repeated stage.
	Execute func(ctx context.Context, c *Client) error
	// Verify asserts the end-state contract (may be nil). Run once, after
	// the last Execute.
	Verify func(ctx context.Context, c *Client) error
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds s to the scenario registry. Registration happens at
// package init; a malformed or duplicate entry is a programming error.
func Register(s Scenario) {
	if s.Name == "" || s.Description == "" || s.Paper == "" || s.Execute == nil {
		panic(fmt.Sprintf("scenario: Register(%q): Name, Description, Paper, and Execute are required", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration %q", s.Name))
	}
	registry[s.Name] = s
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// All returns every registered scenario, sorted by name.
func All() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes one full Setup→Execute→Verify pass of s against c — the
// suite-test entry point (load runs use RunLoad, which repeats Execute).
func Run(ctx context.Context, s Scenario, c *Client) error {
	sc := c.forScenario(s.Name)
	if s.Setup != nil {
		if err := s.Setup(ctx, sc); err != nil {
			return fmt.Errorf("scenario %s: setup: %w", s.Name, err)
		}
	}
	if err := s.Execute(ctx, sc); err != nil {
		return fmt.Errorf("scenario %s: execute: %w", s.Name, err)
	}
	if s.Verify != nil {
		if err := s.Verify(ctx, sc); err != nil {
			return fmt.Errorf("scenario %s: verify: %w", s.Name, err)
		}
	}
	return nil
}
