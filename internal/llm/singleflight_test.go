package llm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCollapsesConcurrentIdenticalRequests(t *testing.T) {
	inner := &countingClient{delay: 20 * time.Millisecond}
	flight := NewCache(inner)
	ctx := context.Background()

	const waiters = 16
	var wg sync.WaitGroup
	texts := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := flight.Complete(ctx, Request{Prompt: "same prompt"})
			texts[i], errs[i] = resp.Text, err
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if texts[i] != "echo:same prompt" {
			t.Errorf("waiter %d got %q", i, texts[i])
		}
	}
	// The 20ms upstream delay guarantees overlap: all waiters must share
	// one upstream call.
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("upstream called %d times, want 1", got)
	}
	st := flight.FlightStats()
	if st.Leads != 1 || st.Shared != waiters-1 {
		t.Errorf("stats = %d leads / %d shared, want 1/%d", st.Leads, st.Shared, waiters-1)
	}
}

func TestFlightDistinctRequestsDoNotCollapse(t *testing.T) {
	inner := &countingClient{delay: 5 * time.Millisecond}
	flight := NewCache(inner)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := flight.Complete(ctx, Request{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := inner.calls.Load(); got != 4 {
		t.Errorf("upstream called %d times, want 4", got)
	}
}

func TestFlightFollowerUsageZeroed(t *testing.T) {
	inner := &countingClient{delay: 20 * time.Millisecond}
	flight := NewCache(inner)
	meter := NewMeter(flight)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := meter.Complete(ctx, Request{Prompt: "dedup me"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Only the leader's usage should be metered: duplicate work costs
	// nothing upstream.
	if u := meter.Usage(); u.Calls != 1 {
		t.Errorf("metered %d calls, want 1", u.Calls)
	}
}

// heldClient is an upstream the test holds open: every call announces
// itself on entered and then waits for release (or its own cancellation),
// so a test orders leader, follower and cancel by events, not by sleeps.
type heldClient struct {
	calls   atomic.Int64
	entered chan struct{} // buffered: one slot per call the test expects
	release chan struct{}
}

func newHeldClient(calls int) *heldClient {
	return &heldClient{entered: make(chan struct{}, calls), release: make(chan struct{})}
}

func (h *heldClient) Complete(ctx context.Context, req Request) (Response, error) {
	h.calls.Add(1)
	h.entered <- struct{}{}
	select {
	case <-h.release:
		return Response{Text: "echo:" + req.Prompt}, nil
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

func (h *heldClient) Name() string { return "held" }

// awaitShared returns once n calls have joined an in-flight leader, and
// fails the test if they have not within five seconds.
func awaitShared(t *testing.T, flight *Cache, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); flight.FlightStats().Shared < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls joined the flight, want %d", flight.FlightStats().Shared, n)
		}
	}
}

func TestFlightWaiterHonorsOwnCancellation(t *testing.T) {
	inner := newHeldClient(1)
	flight := NewCache(inner)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		flight.Complete(context.Background(), Request{Prompt: "slow"})
	}()
	<-inner.entered // the leader is upstream, and stays there

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := flight.Complete(ctx, Request{Prompt: "slow"})
		waiterErr <- err
	}()
	awaitShared(t, flight, 1)
	cancel()
	// The leader is still held upstream: a waiter that returns now did not
	// block on it.
	if err := <-waiterErr; err == nil {
		t.Fatal("expected context error")
	}
	close(inner.release)
	<-leaderDone
}

func TestFlightFollowerRetriesAfterLeaderCancellation(t *testing.T) {
	inner := newHeldClient(2)
	flight := NewCache(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := flight.Complete(leaderCtx, Request{Prompt: "shared"})
		leaderErr <- err
	}()
	<-inner.entered // leader in flight

	followerDone := make(chan error, 1)
	go func() {
		_, err := flight.Complete(context.Background(), Request{Prompt: "shared"})
		followerDone <- err
	}()
	awaitShared(t, flight, 1) // follower joined the flight
	cancelLeader()

	if err := <-leaderErr; err == nil {
		t.Error("cancelled leader should fail")
	}
	// The follower's context is healthy: it must re-issue, not inherit
	// the leader's cancellation.
	<-inner.entered
	close(inner.release)
	if err := <-followerDone; err != nil {
		t.Errorf("follower inherited leader's cancellation: %v", err)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("upstream called %d times, want 2 (leader + follower retry)", got)
	}
}
