package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int

const (
	// Closed: calls flow; consecutive transient failures are counted.
	Closed State = iota
	// Open: calls fast-fail with ErrCircuitOpen until the probe interval
	// elapses.
	Open
	// HalfOpen: a bounded budget of probe calls tests the backend;
	// enough successes close the circuit, any failure reopens it.
	HalfOpen
)

// String renders the state for /stats and traces.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrCircuitOpen marks a call rejected without reaching the backend
// because the circuit is open (or the half-open probe budget is spent).
// The concrete error carries a RetryAfter hint: the time until the next
// probe window.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// circuitOpenError is the rejection returned by Allow.
type circuitOpenError struct{ after time.Duration }

func (e *circuitOpenError) Error() string {
	return fmt.Sprintf("resilience: circuit open; next probe in %s", e.after.Round(time.Millisecond))
}
func (e *circuitOpenError) Unwrap() error             { return ErrCircuitOpen }
func (e *circuitOpenError) RetryAfter() time.Duration { return e.after }

// BreakerConfig tunes the circuit breaker. Zero values pick defaults.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive transient failures trip
	// the circuit (default 5).
	FailureThreshold int
	// ProbeInterval is how long the circuit stays open before admitting
	// probes (default 2s). The serving acceptance contract — "the breaker
	// returns to closed within one probe interval after an outage ends" —
	// is measured against this.
	ProbeInterval time.Duration
	// ProbeBudget bounds concurrent half-open probes (default 2), so a
	// recovering backend is not instantly re-saturated by the full
	// request rate.
	ProbeBudget int
	// SuccessThreshold is how many probe successes close the circuit
	// (default 2).
	SuccessThreshold int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeBudget <= 0 {
		c.ProbeBudget = 2
	}
	if c.SuccessThreshold <= 0 {
		c.SuccessThreshold = 2
	}
	return c
}

// BreakerStats is the /stats snapshot of one breaker.
type BreakerStats struct {
	State string `json:"state"`
	// ConsecutiveFailures is the current closed-state failure streak.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Opens counts closed/half-open → open transitions.
	Opens int64 `json:"opens"`
	// Rejections counts calls fast-failed without reaching the backend.
	Rejections int64 `json:"rejections"`
	// Probes counts half-open calls admitted to test the backend.
	Probes int64 `json:"probes"`
	// ProbeIntervalMS is the configured open → half-open delay; clients
	// (chaos tests, operators) read it to bound their recovery deadline.
	ProbeIntervalMS int64 `json:"probe_interval_ms"`
	// OpenRemainingMS is the time until the next probe window (0 unless
	// open).
	OpenRemainingMS int64 `json:"open_remaining_ms,omitempty"`
}

// Breaker is a per-backend circuit breaker. Allow gates each call;
// exactly one of Success, Failure, or Discard must follow every admitted
// call.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // test clock

	mu        sync.Mutex
	state     State
	fails     int // consecutive transient failures (closed)
	successes int // probe successes (half-open)
	probes    int // in-flight probes (half-open)
	openedAt  time.Time

	opens      int64
	rejections int64
	probeCount int64
}

// NewBreaker builds a breaker for the config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// Allow reports whether a call may proceed. A nil return admits the call
// (and, in half-open, claims a probe slot); a non-nil return is an
// ErrCircuitOpen rejection carrying a RetryAfter hint.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		elapsed := b.now().Sub(b.openedAt)
		if elapsed < b.cfg.ProbeInterval {
			b.rejections++
			return &circuitOpenError{after: b.cfg.ProbeInterval - elapsed}
		}
		// Probe window reached: move to half-open and admit this call as
		// the first probe.
		b.state = HalfOpen
		b.successes = 0
		b.probes = 0
		fallthrough
	default: // HalfOpen
		if b.probes >= b.cfg.ProbeBudget {
			b.rejections++
			return &circuitOpenError{after: b.cfg.ProbeInterval}
		}
		b.probes++
		b.probeCount++
		return nil
	}
}

// Success records an admitted call that reached the backend and got an
// answer (application-level errors included: a backend that answers is
// healthy, whatever it says).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.releaseProbe()
		b.successes++
		if b.successes >= b.cfg.SuccessThreshold {
			b.state = Closed
			b.fails = 0
		}
	case Open:
		// A call admitted before the trip finished late; its verdict is
		// stale.
	}
}

// Failure records an admitted call that failed transiently (backend
// unreachable, timed out, rate-limited).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.releaseProbe()
		// Any probe failure reopens: the backend is not back yet.
		b.trip()
	case Open:
	}
}

// Discard releases an admitted call whose outcome says nothing about
// backend health (the caller canceled or its deadline fired mid-call).
func (b *Breaker) Discard() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.releaseProbe()
	}
}

// trip opens the circuit (callers hold b.mu).
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.opens++
	b.fails = 0
	b.successes = 0
	b.probes = 0
}

// releaseProbe returns a half-open probe slot (callers hold b.mu). The
// guard absorbs calls admitted under a previous state that report after
// a transition.
func (b *Breaker) releaseProbe() {
	if b.probes > 0 {
		b.probes--
	}
}

// State returns the current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots the breaker for /stats.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{
		State:               b.state.String(),
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
		Rejections:          b.rejections,
		Probes:              b.probeCount,
		ProbeIntervalMS:     b.cfg.ProbeInterval.Milliseconds(),
	}
	if b.state == Open {
		if remain := b.cfg.ProbeInterval - b.now().Sub(b.openedAt); remain > 0 {
			st.OpenRemainingMS = remain.Milliseconds()
		}
	}
	return st
}
