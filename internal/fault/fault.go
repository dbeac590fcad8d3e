package fault

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aryn/internal/llm"
)

// Window is a scripted outage interval, measured in milliseconds from the
// moment the spec was activated (Injector.Set). During a window every LLM
// call is rejected with a transient error carrying a Retry-After hint for
// the window's remainder.
type Window struct {
	StartMS int64 `json:"start_ms"`
	EndMS   int64 `json:"end_ms"`
}

// Spec describes the faults to inject. The zero Spec injects nothing, so
// an injector can stay wired into production paths at zero cost until a
// chaos test activates a real spec.
type Spec struct {
	// Seed feeds the deterministic fault stream (same seed, same
	// single-threaded draw sequence).
	Seed int64 `json:"seed,omitempty"`

	// ErrorRate is the probability [0,1] that an LLM call fails.
	ErrorRate float64 `json:"error_rate,omitempty"`
	// PermanentRate is the fraction [0,1] of injected errors that are
	// permanent (not retryable). The rest unwrap to llm.ErrTransient.
	PermanentRate float64 `json:"permanent_rate,omitempty"`
	// RetryAfterMS, when > 0, attaches a Retry-After hint of this many
	// milliseconds to injected transient errors.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// LatencyMS is the spike added to an LLM call when the LatencyRate
	// draw hits.
	LatencyMS   int64   `json:"latency_ms,omitempty"`
	LatencyRate float64 `json:"latency_rate,omitempty"`

	// TruncateRate is the probability [0,1] that a successful response is
	// truncated to half its text — the "garbled/cut-off output" failure
	// mode, exercising downstream parse tolerance.
	TruncateRate float64 `json:"truncate_rate,omitempty"`

	// Outages are scripted dead windows relative to spec activation.
	Outages []Window `json:"outages,omitempty"`

	// OpErrorRate and OpLatencyMS drive the non-LLM operator hooks in the
	// ingest/index paths (docset stage attempts): each hooked attempt
	// fails transiently with probability OpErrorRate and sleeps
	// OpLatencyMS first.
	OpErrorRate float64 `json:"op_error_rate,omitempty"`
	OpLatencyMS int64   `json:"op_latency_ms,omitempty"`
}

// Active reports whether the spec injects anything at all.
func (s Spec) Active() bool {
	return s.ErrorRate > 0 || s.LatencyRate > 0 || s.TruncateRate > 0 ||
		len(s.Outages) > 0 || s.OpErrorRate > 0 || s.OpLatencyMS > 0
}

// ParseSpec decodes a JSON fault spec, rejecting unknown fields so a
// typo'd knob fails loudly instead of silently injecting nothing.
func ParseSpec(raw string) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fault: parse spec: %w", err)
	}
	return s, nil
}

// Stats counts injected faults since the last Set.
type Stats struct {
	// Calls counts LLM calls that passed through the injector.
	Calls int64 `json:"calls"`
	// Transient and Permanent count injected LLM errors by class.
	Transient int64 `json:"transient"`
	Permanent int64 `json:"permanent"`
	// OutageRejections counts calls rejected by a scripted outage window.
	OutageRejections int64 `json:"outage_rejections"`
	// LatencySpikes and Truncated count the non-error fault kinds.
	LatencySpikes int64 `json:"latency_spikes"`
	Truncated     int64 `json:"truncated"`
	// OpCalls and OpFaults count operator-hook attempts and injected
	// operator failures.
	OpCalls  int64 `json:"op_calls"`
	OpFaults int64 `json:"op_faults"`
}

// Error is an injected failure. Transient errors unwrap to
// llm.ErrTransient so the resilience middleware and docset retry loops
// treat them exactly like organic retryable failures.
type Error struct {
	// Op labels where the fault was injected ("llm" or an operator name).
	Op string
	// Transient marks the error retryable.
	Transient bool
	// After is the Retry-After hint (0 = none).
	After time.Duration
}

// Error renders the injected failure.
func (e *Error) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("fault: injected %s failure (%s)", kind, e.Op)
}

// Unwrap exposes llm.ErrTransient for retryable injected faults so
// errors.Is-based retry classification works unchanged.
func (e *Error) Unwrap() error {
	if e.Transient {
		return llm.ErrTransient
	}
	return nil
}

// RetryAfter returns the backoff hint carried by the fault.
func (e *Error) RetryAfter() time.Duration { return e.After }

// Injector draws faults from an activated Spec. It is safe for concurrent
// use; the zero-spec injector is inert.
type Injector struct {
	mu    sync.Mutex
	spec  Spec
	epoch time.Time // when the current spec was activated
	rng   *rand.Rand
	stats Stats
	now   func() time.Time // test hook
}

// New returns an injector with spec activated now.
func New(spec Spec) *Injector {
	inj := &Injector{now: time.Now}
	inj.Set(spec)
	return inj
}

// Set activates a new spec: outage windows re-anchor to now, the fault
// stream reseeds, and stats reset so each spec reads its own counts.
func (inj *Injector) Set(spec Spec) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.spec = spec
	inj.epoch = inj.now()
	inj.rng = rand.New(rand.NewSource(spec.Seed + 1))
	inj.stats = Stats{}
}

// Clear deactivates fault injection (equivalent to Set of a zero Spec).
func (inj *Injector) Clear() { inj.Set(Spec{}) }

// Spec returns the active spec.
func (inj *Injector) Spec() Spec {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.spec
}

// Stats returns the fault counters accumulated since the last Set.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// llmFate draws the fate of one LLM call: a latency spike to apply, an
// error to return, and whether a successful response should be truncated.
func (inj *Injector) llmFate() (delay time.Duration, err error, truncate bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.stats.Calls++
	s := inj.spec
	if !s.Active() {
		return 0, nil, false
	}
	elapsed := inj.now().Sub(inj.epoch)
	for _, w := range s.Outages {
		start, end := time.Duration(w.StartMS)*time.Millisecond, time.Duration(w.EndMS)*time.Millisecond
		if elapsed >= start && elapsed < end {
			inj.stats.OutageRejections++
			inj.stats.Transient++
			return 0, &Error{Op: "llm", Transient: true, After: end - elapsed}, false
		}
	}
	if s.LatencyRate > 0 && inj.rng.Float64() < s.LatencyRate {
		inj.stats.LatencySpikes++
		delay = time.Duration(s.LatencyMS) * time.Millisecond
	}
	if s.ErrorRate > 0 && inj.rng.Float64() < s.ErrorRate {
		if s.PermanentRate > 0 && inj.rng.Float64() < s.PermanentRate {
			inj.stats.Permanent++
			return delay, &Error{Op: "llm", Transient: false}, false
		}
		inj.stats.Transient++
		return delay, &Error{Op: "llm", Transient: true, After: time.Duration(s.RetryAfterMS) * time.Millisecond}, false
	}
	if s.TruncateRate > 0 && inj.rng.Float64() < s.TruncateRate {
		inj.stats.Truncated++
		truncate = true
	}
	return delay, nil, truncate
}

// Hook injects operator-path faults: called once per docset stage attempt
// with the operator name. Returns nil when the attempt should proceed.
func (inj *Injector) Hook(op string) error {
	inj.mu.Lock()
	s := inj.spec
	inj.stats.OpCalls++
	var fail bool
	if s.OpErrorRate > 0 && inj.rng.Float64() < s.OpErrorRate {
		fail = true
		inj.stats.OpFaults++
	}
	inj.mu.Unlock()
	if s.OpLatencyMS > 0 {
		time.Sleep(time.Duration(s.OpLatencyMS) * time.Millisecond)
	}
	if fail {
		return &Error{Op: op, Transient: true}
	}
	return nil
}

// Client wraps inner with fault injection. The wrapper preserves batching
// beneath it by implementing CompleteBatch when scheduling faults.
func (inj *Injector) Client(inner llm.Client) llm.Client {
	return &faultClient{inj: inj, inner: inner}
}

// faultClient is the llm.Client middleware face of the injector. It sits
// at the backend boundary (beneath cache, breaker, and batcher) so
// injected faults exercise the full resilience stack above it.
type faultClient struct {
	inj   *Injector
	inner llm.Client
}

// Complete draws a fate, applies any latency spike (respecting ctx
// cancellation), and forwards or fails accordingly.
func (f *faultClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	delay, ferr, truncate := f.inj.llmFate()
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return llm.Response{}, ctx.Err()
		case <-t.C:
		}
	}
	if ferr != nil {
		return llm.Response{}, ferr
	}
	resp, err := f.inner.Complete(ctx, req)
	if err == nil && truncate {
		resp.Text = resp.Text[:len(resp.Text)/2]
	}
	return resp, err
}

// CompleteBatch draws one fate per grouped dispatch — a batch is one
// upstream call, so it fails, spikes, or truncates as a unit. A batch-level
// injected error makes the Batcher degrade to per-request dispatch, where
// each request then draws its own fate; that keeps batching live beneath
// the injector while faults still land per-call.
func (f *faultClient) CompleteBatch(ctx context.Context, reqs []llm.Request) ([]llm.Response, error) {
	delay, ferr, truncate := f.inj.llmFate()
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	var resps []llm.Response
	var err error
	if bc, ok := f.inner.(llm.BatchClient); ok {
		resps, err = bc.CompleteBatch(ctx, reqs)
	} else {
		resps = make([]llm.Response, len(reqs))
		for i, r := range reqs {
			if resps[i], err = f.inner.Complete(ctx, r); err != nil {
				return nil, err
			}
		}
	}
	if err == nil && truncate {
		for i := range resps {
			resps[i].Text = resps[i].Text[:len(resps[i].Text)/2]
		}
	}
	return resps, err
}

// Name identifies the wrapped model.
func (f *faultClient) Name() string { return f.inner.Name() }

var (
	_ llm.Client      = (*faultClient)(nil)
	_ llm.BatchClient = (*faultClient)(nil)
)
