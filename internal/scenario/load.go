package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Mix is a named, weighted blend of scenarios.
type Mix struct {
	Name    string
	Weights map[string]int
}

// Mixes returns the standard blends the load tests drive.
func Mixes() []Mix {
	return []Mix{
		// Steady-state analytics traffic: mostly one-shot queries with
		// occasional plan inspection — the cache-warm serving fast path.
		{
			Name: "read-heavy",
			Weights: map[string]int{
				"query-oneshot":       6,
				"plan-edit-roundtrip": 1,
				"explain-analyze":     1,
			},
		},
		// Analyst sessions: conversational follow-ups, plan edit
		// round-trips and session-lifecycle checks beside background reads.
		{
			Name: "interactive",
			Weights: map[string]int{
				"chat-session":        3,
				"plan-edit-roundtrip": 2,
				"query-oneshot":       2,
				"chat-expiry":         1,
			},
		},
		// Hostile load: cache-defeating query bursts and concurrent
		// ingests on top of reads — the mix that must shed, not collapse.
		{
			Name: "overload-burst",
			Weights: map[string]int{
				"query-oneshot":       4,
				"overload-shed":       2,
				"ingest-multi-corpus": 1,
			},
		},
		// Streaming-first clients: SSE queries, async ingest jobs churning
		// behind the read path (sheds from the bounded job queue are
		// expected back-pressure), and plain reads in between.
		{
			Name: "stream",
			Weights: map[string]int{
				"query-stream":  4,
				"query-oneshot": 2,
				"ingest-async":  1,
			},
		},
	}
}

// ChaosMix is the fault-injection blend: chaos scenarios scripting the
// injector under background read traffic. It is not part of Mixes()
// because it needs a server whose fault injector is wired and exposed
// (arynd -fault-endpoint). Its contract is the degradation contract
// itself: injected faults must degrade or shed, never fail a request.
func ChaosMix() Mix {
	return Mix{
		Name: "chaos",
		Weights: map[string]int{
			"chaos-llm-outage":        1,
			"chaos-flaky-backend":     2,
			"chaos-cache-kill":        1,
			"chaos-ingest-saturation": 1,
			"query-oneshot":           3,
		},
	}
}

// LoadOptions sizes one RunLoad call.
type LoadOptions struct {
	// MaxExecutions is how many scenario executions the run launches.
	MaxExecutions int
	// Workers bounds concurrently running executions (default 8).
	Workers int
	// Seed drives the weighted scenario picker.
	Seed int64
}

// Report counts what one RunLoad call did: scenario executions and the
// HTTP requests they issued, with the shed (429) and failed ones apart.
type Report struct {
	Executions  int
	ShedExecs   int
	FailedExecs int
	Requests    int
	Shed        int
	Failed      int
}

// recorder collects observations under a mutex.
type recorder struct {
	mu  sync.Mutex
	obs []Observation
}

func (r *recorder) Observe(o Observation) {
	r.mu.Lock()
	r.obs = append(r.obs, o)
	r.mu.Unlock()
}

// RunLoad runs opt.MaxExecutions executions of scenarios drawn from mix
// by weight, at most opt.Workers at a time, against the server behind c,
// and returns the counts. Each scenario's Setup runs once before load
// starts and its Verify once after it stops; a Verify failure fails the
// run.
func RunLoad(ctx context.Context, c *Client, mix Mix, opt LoadOptions) (*Report, error) {
	if opt.Workers <= 0 {
		opt.Workers = 8
	}
	if len(mix.Weights) == 0 {
		return nil, fmt.Errorf("scenario: mix %q has no weights", mix.Name)
	}

	// Resolve the weighted scenario list up front: unknown names are
	// configuration errors, not runtime surprises.
	var scenarios, picks []Scenario
	names := make([]string, 0, len(mix.Weights))
	for name := range mix.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("scenario: mix %q references unknown scenario %q", mix.Name, name)
		}
		scenarios = append(scenarios, s)
		for i := 0; i < mix.Weights[name]; i++ {
			picks = append(picks, s)
		}
	}

	for _, s := range scenarios {
		if s.Setup != nil {
			if err := s.Setup(ctx, c.forScenario(s.Name)); err != nil {
				return nil, fmt.Errorf("scenario %s: setup: %w", s.Name, err)
			}
		}
	}

	rec := &recorder{}
	loadClient := c.withRecorder(rec)
	rng := rand.New(rand.NewSource(opt.Seed))
	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup
	var report Report
	var mu sync.Mutex // guards report's execution counts from worker goroutines
	for i := 0; i < opt.MaxExecutions && ctx.Err() == nil; i++ {
		s := picks[rng.Intn(len(picks))]
		sem <- struct{}{}
		report.Executions++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			err := s.Execute(ctx, loadClient.forScenario(s.Name))
			if err == nil {
				return
			}
			mu.Lock()
			if errors.Is(err, ErrShed) {
				report.ShedExecs++
			} else {
				report.FailedExecs++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	report.Requests = len(rec.obs)
	for _, o := range rec.obs {
		if o.Shed {
			report.Shed++
		}
		if o.Failed {
			report.Failed++
		}
	}

	var verifyErrs []error
	for _, s := range scenarios {
		if s.Verify != nil {
			if err := s.Verify(ctx, c.forScenario(s.Name)); err != nil {
				verifyErrs = append(verifyErrs, fmt.Errorf("scenario %s: verify: %w", s.Name, err))
			}
		}
	}
	return &report, errors.Join(verifyErrs...)
}
