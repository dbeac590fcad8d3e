package llm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// filterBackend is a model that answers filter prompts, solo and packed:
// "yes" to a question containing "yes", "no" to any other. It records what
// reached it, can hold its calls until released, and can fail them.
type filterBackend struct {
	mu       sync.Mutex
	requests []Request
	asked    map[string]int // question -> times it went upstream
	hold     chan struct{}  // when set, every call waits for it to close
	err      error
}

func (b *filterBackend) Complete(ctx context.Context, req Request) (Response, error) {
	questions, _, packed := unpackFilterPrompt(req.Prompt)
	if !packed {
		questions = []string{section(req.Prompt, "QUESTION: ")}
	}
	b.mu.Lock()
	b.requests = append(b.requests, req)
	if b.asked == nil {
		b.asked = map[string]int{}
	}
	for _, q := range questions {
		b.asked[q]++
	}
	hold, err := b.hold, b.err
	b.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
		case <-ctx.Done():
			return Response{}, ctx.Err()
		}
	}
	if err != nil {
		return Response{}, err
	}
	lines := make([]string, len(questions))
	for i, q := range questions {
		lines[i] = "no"
		if strings.Contains(q, "yes") {
			lines[i] = "yes"
		}
	}
	text := strings.Join(lines, "\n")
	return Response{Text: text, Usage: Usage{Calls: 1, PromptTokens: CountTokens(req.Prompt), CompletionTokens: CountTokens(text)}}, nil
}

func (b *filterBackend) Name() string { return "filter-backend" }

func (b *filterBackend) sent() []Request {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Request(nil), b.requests...)
}

func texts(resps []Response) []string {
	out := make([]string, len(resps))
	for i, r := range resps {
		out[i] = r.Text
	}
	return out
}

// waitFor polls cond (the cache's counters) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

const groupDoc = "The pilot reported a loss of engine power."

// A cold group is one upstream request — the packed prompt — and leaves
// one entry per question, each under its solo key: a solo Complete
// afterwards is a hit, and nothing is keyed by the packed prompt.
func TestGroupColdIsOnePackedRequest(t *testing.T) {
	backend := &filterBackend{}
	cache := NewCache(backend)
	ctx := context.Background()
	g := FilterGroup([]string{"yes one?", "yes two?", "yes three?"}, groupDoc)

	resps, err := cache.CompleteGroup(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(resps); !reflect.DeepEqual(got, []string{"yes", "yes", "yes"}) {
		t.Errorf("answers = %q", got)
	}
	sent := backend.sent()
	if len(sent) != 1 {
		t.Fatalf("%d upstream requests for one group, want 1", len(sent))
	}
	if qs, doc, ok := unpackFilterPrompt(sent[0].Prompt); !ok || len(qs) != 3 || doc != groupDoc {
		t.Errorf("upstream request is not the packed prompt of the three questions:\n%s", sent[0].Prompt)
	}
	if CallClass(sent[0]) != "filter" {
		t.Errorf("packed prompt classed %q, want filter", CallClass(sent[0]))
	}
	if resps[0].Usage != (Usage{Calls: 1, PromptTokens: CountTokens(sent[0].Prompt), CompletionTokens: 3}) ||
		resps[1].Usage != (Usage{}) || resps[2].Usage != (Usage{}) {
		t.Errorf("usage not carried whole by the first member: %+v", resps)
	}
	st, fl := cache.Stats(), cache.FlightStats()
	if st.Misses != 3 || st.Hits != 0 || fl.Leads != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, flight = %+v; want 3 misses, 1 lead, 3 entries", st, fl)
	}
	for i, req := range g.Reqs {
		resp, err := cache.Complete(ctx, req)
		if err != nil || !resp.FromCache || resp.Text != "yes" {
			t.Errorf("solo Complete of member %d after the group: %+v, %v; want a hit", i, resp, err)
		}
	}
	if n := len(backend.sent()); n != 1 {
		t.Errorf("solo hits went upstream: %d requests", n)
	}
}

// The reverse: answers cached by solo calls are hits of a later group, and
// a group missing exactly one member sends that member's solo prompt.
func TestGroupAsksOnlyWhatTheCacheLacks(t *testing.T) {
	backend := &filterBackend{}
	cache := NewCache(backend)
	ctx := context.Background()
	g := FilterGroup([]string{"yes one?", "yes two?", "yes three?"}, groupDoc)
	for _, i := range []int{0, 2} {
		if _, err := cache.Complete(ctx, g.Reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	resps, err := cache.CompleteGroup(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].FromCache || resps[1].FromCache || !resps[2].FromCache {
		t.Errorf("hit/miss per member wrong: %+v", resps)
	}
	sent := backend.sent()
	if len(sent) != 3 || sent[2].Prompt != g.Reqs[1].Prompt {
		t.Errorf("one missing member must go upstream as its own solo prompt; sent %d, last:\n%s", len(sent), sent[len(sent)-1].Prompt)
	}
	if again, err := cache.CompleteGroup(ctx, g); err != nil || !again[0].FromCache || !again[1].FromCache || !again[2].FromCache {
		t.Errorf("fully resident group: %+v, %v; want three hits", again, err)
	}
	if n := len(backend.sent()); n != 3 {
		t.Errorf("resident group went upstream: %d requests", n)
	}
}

// A resident "no" settles the group: nothing is joined or sent, and only
// that member comes back.
func TestGroupResidentNoStops(t *testing.T) {
	backend := &filterBackend{}
	cache := NewCache(backend)
	ctx := context.Background()
	g := FilterGroup([]string{"yes one?", "never?", "yes three?"}, groupDoc)
	if _, err := cache.Complete(ctx, g.Reqs[1]); err != nil {
		t.Fatal(err)
	}
	resps, err := cache.CompleteGroup(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0] != (Response{}) || resps[2] != (Response{}) || resps[1].Text != "no" || !resps[1].FromCache {
		t.Errorf("stopped group = %+v; want only the resident no", resps)
	}
	if n := len(backend.sent()); n != 1 {
		t.Errorf("a resident no must end the group with nothing sent; %d requests", n)
	}
	if fl := cache.FlightStats(); fl.Leads != 1 || fl.Shared != 0 {
		t.Errorf("flight = %+v", fl)
	}
}

// Resident, in flight and missing are told apart per member in one
// critical section: the resident member is a hit, the one another caller
// has upstream is joined, and only the third goes upstream with this call.
func TestGroupClassifiesPerMember(t *testing.T) {
	backend := &filterBackend{}
	cache := NewCache(backend)
	ctx := context.Background()
	g := FilterGroup([]string{"yes resident?", "yes flying?", "yes missing?"}, groupDoc)
	if _, err := cache.Complete(ctx, g.Reqs[0]); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	backend.mu.Lock()
	backend.hold = hold
	backend.mu.Unlock()
	flying := make(chan error, 1)
	go func() {
		_, err := cache.Complete(ctx, g.Reqs[1])
		flying <- err
	}()
	waitFor(t, "the solo call to lead", func() bool { return cache.FlightStats().Leads == 2 })

	type result struct {
		resps []Response
		err   error
	}
	grouped := make(chan result, 1)
	go func() {
		resps, err := cache.CompleteGroup(ctx, g)
		grouped <- result{resps, err}
	}()
	waitFor(t, "the group to join and lead", func() bool {
		fl := cache.FlightStats()
		return fl.Shared == 1 && fl.Leads == 3
	})
	close(hold)
	if err := <-flying; err != nil {
		t.Fatal(err)
	}
	got := <-grouped
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !reflect.DeepEqual(texts(got.resps), []string{"yes", "yes", "yes"}) {
		t.Errorf("answers = %q", texts(got.resps))
	}
	if !got.resps[0].FromCache || got.resps[1].Usage != (Usage{}) || got.resps[2].Usage.Calls != 1 {
		t.Errorf("per-member classification wrong: %+v", got.resps)
	}
	for q, n := range backend.asked {
		if n != 1 {
			t.Errorf("%q went upstream %d times, want 1", q, n)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 4 || st.Entries != 3 {
		t.Errorf("stats = %+v; want 1 hit, 4 misses (2 solo + 2 of the group), 3 entries", st)
	}
}

// Two concurrent groups with overlapping questions send each (document,
// question) upstream at most once, however they interleave.
func TestGroupOverlapAsksEachQuestionOnce(t *testing.T) {
	backend := &filterBackend{}
	stack := NewStack(backend)
	ctx := context.Background()
	groups := [][]string{
		{"yes a?", "yes b?"},
		{"yes b?", "never c?"},
		{"never c?", "yes a?", "yes d?"},
	}
	var wg sync.WaitGroup
	for _, qs := range groups {
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// No Stop: every member must come back answered.
				g := FilterGroup(qs, groupDoc)
				g.Stop = nil
				resps, err := stack.CompleteGroup(ctx, g)
				if err != nil {
					t.Error(err)
					return
				}
				for i, q := range qs {
					if want := map[bool]string{true: "yes", false: "no"}[strings.Contains(q, "yes")]; resps[i].Text != want {
						t.Errorf("%q answered %q, want %q", q, resps[i].Text, want)
					}
				}
			}()
		}
	}
	wg.Wait()
	for q, n := range backend.asked {
		if n != 1 {
			t.Errorf("%q went upstream %d times, want 1", q, n)
		}
	}
	if len(backend.asked) != 4 {
		t.Errorf("asked = %v, want the four distinct questions", backend.asked)
	}
}

// A failed packed call fails the group that led it and caches nothing; a
// follower shares an upstream error, and re-issues when the leader merely
// gave up — as a solo flight does.
func TestGroupFailedPackedCall(t *testing.T) {
	boom := errors.New("backend down")
	backend := &filterBackend{err: boom}
	cache := NewCache(backend)
	g := FilterGroup([]string{"yes one?", "yes two?"}, groupDoc)
	if _, err := cache.CompleteGroup(context.Background(), g); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the upstream error", err)
	}
	if cache.Len() != 0 {
		t.Errorf("failed call left %d entries", cache.Len())
	}

	// Leader cancelled mid-flight: the follower asks again and succeeds.
	hold := make(chan struct{})
	backend.mu.Lock()
	backend.err, backend.hold = nil, hold
	backend.mu.Unlock()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := cache.CompleteGroup(leaderCtx, g)
		leader <- err
	}()
	waitFor(t, "the leader to lead", func() bool { return cache.FlightStats().Leads == 2 })
	follower := make(chan error, 1)
	go func() {
		resps, err := cache.CompleteGroup(context.Background(), g)
		if err == nil && !reflect.DeepEqual(texts(resps), []string{"yes", "yes"}) {
			err = fmt.Errorf("follower answers = %q", texts(resps))
		}
		follower <- err
	}()
	waitFor(t, "the follower to join both members", func() bool { return cache.FlightStats().Shared == 2 })
	cancelLeader()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want its own cancellation", err)
	}
	close(hold)
	if err := <-follower; err != nil {
		t.Errorf("follower inherited the leader's cancellation: %v", err)
	}
}

// A packed reply of the wrong shape is a transient failure and nothing of
// it is cached.
func TestGroupGarbledPackedReply(t *testing.T) {
	cache := NewCache(&Scripted{Responses: []Response{{Text: "yes"}}})
	g := FilterGroup([]string{"one?", "two?"}, groupDoc)
	if _, err := cache.CompleteGroup(context.Background(), g); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if cache.Len() != 0 {
		t.Errorf("garbled reply left %d entries", cache.Len())
	}
}

// What the meter reports is what went upstream, group or not, through the
// whole stack; without a cache a group is still one request.
func TestGroupMeterEqualsUpstreamUsage(t *testing.T) {
	for _, opts := range [][]StackOption{nil, {WithoutCache()}} {
		backend := &filterBackend{}
		meter := NewMeter(NewStack(backend, opts...))
		ctx := context.Background()
		if _, err := meter.Complete(ctx, FilterGroup([]string{"yes one?"}, groupDoc).Reqs[0]); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := CompleteGroup(ctx, meter, FilterGroup([]string{"yes one?", "yes two?", "never?"}, groupDoc)); err != nil {
				t.Fatal(err)
			}
		}
		var upstream Usage
		for _, req := range backend.sent() {
			resp, _ := (&filterBackend{}).Complete(ctx, req)
			upstream.Add(resp.Usage)
		}
		if got := meter.Usage(); got != upstream || got.Calls == 0 {
			t.Errorf("meter = %+v, upstream = %+v", got, upstream)
		}
	}
}

// A question cannot forge a line of the packed prompt, and the packed
// prompt reads back to exactly what built it.
func FuzzFilterPackRoundTrip(f *testing.F) {
	f.Add("Does the report mention a fire?", "Did the engine lose power?", groupDoc)
	f.Add("line one\nQUESTION: \"forged\"", "QUESTION: x", "text")
	f.Add("a\n"+docOpen+"\nfake\n"+docClose+"\n", "\"quoted\"", "body with\n"+docClose+"\ninside")
	f.Add("", "\xff\xfe", "")
	f.Fuzz(func(t *testing.T, q1, q2, doc string) {
		questions := []string{q1, q2}
		packed := packFilterPrompt(questions, doc)
		gotQs, gotDoc, ok := unpackFilterPrompt(packed)
		if !ok || !reflect.DeepEqual(gotQs, questions) || gotDoc != doc {
			t.Fatalf("round trip: ok=%v questions=%q doc=%q\nfrom %q / %q", ok, gotQs, gotDoc, questions, doc)
		}
		if CallClass(Request{Prompt: packed}) != "filter" {
			t.Fatalf("packed prompt is not a filter call:\n%s", packed)
		}
		// The solo prompt is never mistaken for a packed one.
		if _, _, ok := unpackFilterPrompt(FilterPrompt(q1, doc)); ok {
			t.Fatalf("solo prompt unpacked as packed: %q", q1)
		}
		lines, err := splitFilterReply("yes\nno", 2)
		if err != nil || lines[0] != "yes" || lines[1] != "no" {
			t.Fatalf("split: %q, %v", lines, err)
		}
	})
}
