package llm

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The pilot's failure, at 19:02!")
	want := []string{"the", "pilot", "s", "failure", "at", "19", "02"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tok[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Error("empty should be 0 tokens")
	}
	if n := CountTokens("one two three"); n != 3 {
		t.Errorf("CountTokens = %d, want 3", n)
	}
	// Punctuation-heavy text falls back to the length heuristic.
	if n := CountTokens(strings.Repeat("--==++~~", 12)); n == 0 {
		t.Error("symbol soup should still cost tokens")
	}
}

func TestTruncateTokens(t *testing.T) {
	text := "alpha beta gamma delta epsilon"
	got := TruncateTokens(text, 3)
	if CountTokens(got) != 3 {
		t.Errorf("TruncateTokens kept %d tokens: %q", CountTokens(got), got)
	}
	if !strings.HasPrefix(text, got) {
		t.Errorf("truncation must be a prefix: %q", got)
	}
	if TruncateTokens(text, 100) != text {
		t.Error("no-op truncation should return input")
	}
	if TruncateTokens(text, 0) != "" {
		t.Error("zero budget should return empty")
	}
}

func TestStateHelpers(t *testing.T) {
	if StateAbbrev("Kentucky") != "KY" || StateAbbrev("ky") != "KY" {
		t.Error("StateAbbrev failed for Kentucky")
	}
	if StateAbbrev("Gondor") != "" {
		t.Error("unknown state should be empty")
	}
	if got := StateOfLocation("Gilbertsville, Kentucky"); got != "KY" {
		t.Errorf("StateOfLocation = %q", got)
	}
	if got := StateOfLocation("near Winchester, Virginia (OKV)"); got != "VA" {
		t.Errorf("StateOfLocation with airport code = %q", got)
	}
}

func TestUsageSub(t *testing.T) {
	after := Usage{Calls: 10, PromptTokens: 500, CompletionTokens: 120}
	before := Usage{Calls: 4, PromptTokens: 180, CompletionTokens: 50}
	got := after.Sub(before)
	want := Usage{Calls: 6, PromptTokens: 320, CompletionTokens: 70}
	if got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	if (after.Sub(Usage{})) != after {
		t.Error("Sub of zero snapshot should be identity")
	}
}

func TestMeterAccumulates(t *testing.T) {
	stack := NewStack(NewSim(1))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := stack.Complete(ctx, Request{Prompt: fmt.Sprintf("hello world test prompt %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	u := stack.Usage()
	if u.Calls != 3 || u.PromptTokens == 0 {
		t.Errorf("Usage = %+v", u)
	}
}

func TestSimDeterminism(t *testing.T) {
	ctx := context.Background()
	req := Request{Prompt: FilterPrompt("does the document mention engine problems?", "N42",
		"The engine lost power. Examination revealed a failure of the carburetor.")}
	a, _ := NewSim(42).Complete(ctx, req)
	b, _ := NewSim(42).Complete(ctx, req)
	if a.Text != b.Text {
		t.Errorf("same seed should give same answer: %q vs %q", a.Text, b.Text)
	}
}

func TestSimContextWindowTruncates(t *testing.T) {
	long := strings.Repeat("filler words to blow the window ", contextWindow/4)
	if n := CountTokens(long); n <= contextWindow {
		t.Fatalf("prompt of %d tokens does not overflow the %d-token window", n, contextWindow)
	}
	resp, err := NewSim(1).Complete(context.Background(), Request{Prompt: long})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Usage.PromptTokens != contextWindow {
		t.Errorf("prompt tokens %d, want the window's %d", resp.Usage.PromptTokens, contextWindow)
	}
}

func TestSimCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSim(1).Complete(ctx, Request{Prompt: "x"}); err == nil {
		t.Error("cancelled context should error")
	}
}

func TestScriptedClient(t *testing.T) {
	s := &Scripted{Responses: []Response{{Text: "one"}, {Text: "two"}}}
	ctx := context.Background()
	r1, _ := s.Complete(ctx, Request{Prompt: "a"})
	r2, _ := s.Complete(ctx, Request{Prompt: "b"})
	r3, _ := s.Complete(ctx, Request{Prompt: "c"})
	if r1.Text != "one" || r2.Text != "two" || r3.Text != "two" {
		t.Errorf("scripted sequence: %q %q %q", r1.Text, r2.Text, r3.Text)
	}
	if s.Calls() != 3 || len(s.Requests) != 3 {
		t.Error("call recording broken")
	}
}

func TestGenericCompletion(t *testing.T) {
	sim := NewSim(1)
	resp, err := sim.Complete(context.Background(), Request{Prompt: "tell me about airplanes and weather"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text == "" {
		t.Error("generic completion should produce text")
	}
}

func TestCustomSkillDispatch(t *testing.T) {
	sim := NewSim(1)
	sim.Register(skillFunc{
		match: func(r Request) bool { return strings.HasPrefix(r.Prompt, TaskPlan) },
		run:   func(r Request) (string, error) { return `{"plan":"ok"}`, nil },
	})
	resp, err := sim.Complete(context.Background(), Request{Prompt: TaskPlan + "\nquery here"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != `{"plan":"ok"}` {
		t.Errorf("custom skill not dispatched: %q", resp.Text)
	}
}

type skillFunc struct {
	match func(Request) bool
	run   func(Request) (string, error)
}

func (s skillFunc) Match(r Request) bool { return s.match(r) }
func (s skillFunc) Run(_ *rand.Rand, r Request) (string, error) {
	return s.run(r)
}
