package llm

import (
	"context"
	"fmt"
	"sync"
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

func TestFlightWaiterHonorsOwnCancellation(t *testing.T) {
	inner := &countingClient{delay: 200 * time.Millisecond}
	flight := NewCache(inner)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		flight.Complete(context.Background(), Request{Prompt: "slow"})
	}()
	// Let the leader take off, then join with an already-expiring context.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := flight.Complete(ctx, Request{Prompt: "slow"})
	if err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancelled waiter blocked %v on the leader", elapsed)
	}
	<-leaderDone
}

func TestFlightFollowerRetriesAfterLeaderCancellation(t *testing.T) {
	inner := &countingClient{delay: 50 * time.Millisecond}
	flight := NewCache(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := flight.Complete(leaderCtx, Request{Prompt: "shared"})
		leaderErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // leader in flight

	followerDone := make(chan error, 1)
	go func() {
		_, err := flight.Complete(context.Background(), Request{Prompt: "shared"})
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // follower joined the flight
	cancelLeader()

	if err := <-leaderErr; err == nil {
		t.Error("cancelled leader should fail")
	}
	// The follower's context is healthy: it must re-issue, not inherit
	// the leader's cancellation.
	if err := <-followerDone; err != nil {
		t.Errorf("follower inherited leader's cancellation: %v", err)
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("upstream called %d times, want 2 (leader + follower retry)", got)
	}
}
