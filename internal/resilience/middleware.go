package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aryn/internal/llm"
)

// Options configures the Middleware. Zero values pick defaults.
type Options struct {
	// Retry is the backoff policy for transient failures.
	Retry Policy
	// Breaker tunes the per-backend circuit breaker.
	Breaker BreakerConfig
	// Timeouts bounds one backend attempt per call class (llm.CallClass:
	// "plan", "extract", "filter", "summarize", "answer", "generic").
	// Classes absent here use DefaultTimeout.
	Timeouts map[string]time.Duration
	// DefaultTimeout is the attempt budget for unlisted classes (default
	// 10s; negative disables attempt timeouts entirely).
	DefaultTimeout time.Duration
}

// Stats is the /stats snapshot of the middleware.
type Stats struct {
	Breaker BreakerStats `json:"breaker"`
	// Retries counts backend attempts beyond the first.
	Retries int64 `json:"retries"`
	// RetryWaitMS is cumulative time spent in backoff waits.
	RetryWaitMS int64 `json:"retry_wait_ms"`
	// AttemptTimeouts counts attempts cut off by their per-class budget
	// (the caller's own deadline is not counted — that is the caller
	// giving up, not the backend wedging).
	AttemptTimeouts int64 `json:"attempt_timeouts"`
}

// Middleware is the llm.Client resilience layer: per-call-class attempt
// timeouts, breaker-gated admission, and jittered retries of transient
// failures. In the canonical stack it sits between singleflight and the
// batcher, so cache hits never touch the breaker and retried attempts
// re-enter batching.
type Middleware struct {
	inner    llm.Client
	retrier  *Retrier
	breaker  *Breaker
	timeouts map[string]time.Duration
	defaultT time.Duration

	retries         atomic.Int64
	retryWaitNS     atomic.Int64
	attemptTimeouts atomic.Int64
}

// Wrap builds the middleware around inner.
func Wrap(inner llm.Client, opts Options) *Middleware {
	d := opts.DefaultTimeout
	if d == 0 {
		d = 10 * time.Second
	}
	if d < 0 {
		d = 0
	}
	return &Middleware{
		inner:    inner,
		retrier:  NewRetrier(opts.Retry),
		breaker:  NewBreaker(opts.Breaker),
		timeouts: opts.Timeouts,
		defaultT: d,
	}
}

// Complete runs one completion with breaker admission, a per-class
// attempt timeout, and jittered retries of transient failures. The
// caller's context deadline is always honored: backoff never sleeps past
// it, and a call that dies with the caller is Discarded from breaker
// accounting rather than counted against the backend.
func (m *Middleware) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	class := llm.CallClass(req)
	budget := m.defaultT
	if t, ok := m.timeouts[class]; ok {
		budget = t
		if budget < 0 {
			budget = 0
		}
	}

	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return llm.Response{}, lastErr
			}
			return llm.Response{}, err
		}
		if err := m.breaker.Allow(); err != nil {
			return llm.Response{}, fmt.Errorf("%s call: %w", class, err)
		}
		actx := ctx
		cancel := func() {}
		if budget > 0 {
			actx, cancel = context.WithTimeout(ctx, budget)
		}
		resp, err := m.inner.Complete(actx, req)
		cancel()
		if err == nil {
			m.breaker.Success()
			return resp, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; the outcome says nothing about backend
			// health.
			m.breaker.Discard()
			if lastErr != nil {
				return llm.Response{}, lastErr
			}
			return llm.Response{}, err
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The per-attempt budget fired while the caller is still
			// waiting: a wedged backend looks like any other transient
			// failure from here up.
			m.attemptTimeouts.Add(1)
			err = fmt.Errorf("%s attempt timed out after %s: %w", class, budget, llm.ErrTransient)
		}
		if !errors.Is(err, llm.ErrTransient) {
			// The backend answered with an application-level error
			// (context too long, refusal surfaced as error): it is
			// reachable, so the breaker hears success.
			m.breaker.Success()
			return llm.Response{}, err
		}
		m.breaker.Failure()
		lastErr = err
		if attempt >= m.retrier.MaxAttempts() {
			return llm.Response{}, lastErr
		}
		hint, _ := RetryAfterHint(err)
		waited, werr := m.retrier.Wait(ctx, attempt, hint)
		m.retryWaitNS.Add(int64(waited))
		if werr != nil {
			// The deadline ate the backoff, or the backend announced an
			// absence longer than our patience; surface the last real
			// failure rather than a bare context error.
			return llm.Response{}, lastErr
		}
		m.retries.Add(1)
	}
}

// Name identifies the backing model.
func (m *Middleware) Name() string { return m.inner.Name() }

// Breaker returns the circuit breaker (for health endpoints and tests).
func (m *Middleware) Breaker() *Breaker { return m.breaker }

// Stats snapshots the middleware counters.
func (m *Middleware) Stats() Stats {
	return Stats{
		Breaker:         m.breaker.Stats(),
		Retries:         m.retries.Load(),
		RetryWaitMS:     time.Duration(m.retryWaitNS.Load()).Milliseconds(),
		AttemptTimeouts: m.attemptTimeouts.Load(),
	}
}

// Unavailable reports whether err means "the model backend is
// unavailable" — a circuit-open fast fail or an exhausted transient
// failure — i.e. the class of errors the serving layer degrades on
// (retrieval-only answers) instead of 500ing. Application-level errors
// (invalid plans, context overflows) are not unavailability.
func Unavailable(err error) bool {
	return errors.Is(err, ErrCircuitOpen) || errors.Is(err, llm.ErrTransient)
}

var _ llm.Client = (*Middleware)(nil)
