package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// Sim is the deterministic heuristic language model. It dispatches on the
// task marker in the prompt and runs the matching skill. All stochastic
// behaviour (fault injection, leniency) is seeded per-request so runs are
// reproducible.
type Sim struct {
	name           string
	seed           int64
	contextWindow  int
	strictContext  bool
	filterLeniency float64
	failureRate    float64
	attendItems    int
	refusalRatio   float64
	latency        time.Duration
	skills         []Skill
	calls          atomic.Int64
}

// Skill extends the Sim with a custom task handler (e.g. Luna's planner).
type Skill interface {
	// Match reports whether this skill handles the request.
	Match(req Request) bool
	// Run produces the completion text. rng is seeded per request.
	Run(rng *rand.Rand, req Request) (string, error)
}

// SimOption configures a Sim.
type SimOption func(*Sim)

// WithContextWindow sets the prompt token budget (default 8192). Prompts
// over the window are truncated (or rejected under WithStrictContext).
func WithContextWindow(tokens int) SimOption {
	return func(s *Sim) { s.contextWindow = tokens }
}

// WithStrictContext makes over-window prompts an error instead of
// truncating.
func WithStrictContext() SimOption { return func(s *Sim) { s.strictContext = true } }

// WithFilterLeniency sets the probability that a weak single-concept match
// still passes an llmFilter (default 0.85 — the paper's "occasionally too
// generous" behaviour).
func WithFilterLeniency(p float64) SimOption { return func(s *Sim) { s.filterLeniency = p } }

// WithFailureRate injects seeded transient failures at rate p, exercising
// executor retries.
func WithFailureRate(p float64) SimOption { return func(s *Sim) { s.failureRate = p } }

// WithAttendItems caps how many context items the answer skill can attend
// to (default 30): the "lost in the middle" effect [Liu et al. 2023].
func WithAttendItems(n int) SimOption { return func(s *Sim) { s.attendItems = n } }

// WithRefusalRatio sets the fraction of visible context chunks that must
// carry liability boilerplate before a fault-adjacent question triggers a
// refusal (default 0.08, §7.2 context poisoning).
func WithRefusalRatio(p float64) SimOption { return func(s *Sim) { s.refusalRatio = p } }

// WithName overrides the reported model name.
func WithName(name string) SimOption { return func(s *Sim) { s.name = name } }

// WithLatency adds a fixed per-dispatch delay modelling network round-trip
// to a hosted model. A batched dispatch (CompleteBatch) pays it once for
// the whole group — the amortization that makes batching worthwhile.
func WithLatency(d time.Duration) SimOption { return func(s *Sim) { s.latency = d } }

// NewSim builds the simulated model with the given seed.
func NewSim(seed int64, opts ...SimOption) *Sim {
	s := &Sim{
		name:           "sim-gpt",
		seed:           seed,
		contextWindow:  8192,
		filterLeniency: 0.85,
		attendItems:    30,
		refusalRatio:   0.08,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name identifies the model.
func (s *Sim) Name() string { return s.name }

// Register adds a custom skill, consulted before the built-in ones.
func (s *Sim) Register(sk Skill) { s.skills = append(s.skills, sk) }

// rng derives a deterministic per-request random source from the Sim seed
// and the prompt content.
func (s *Sim) rng(prompt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(prompt))
	return rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
}

// Complete implements Client.
func (s *Sim) Complete(ctx context.Context, req Request) (Response, error) {
	if err := s.sleep(ctx); err != nil {
		return Response{}, err
	}
	return s.complete(ctx, req)
}

// sleep models the network round-trip of one dispatch.
func (s *Sim) sleep(ctx context.Context) error {
	if s.latency <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(s.latency)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// complete is the latency-free completion path shared by solo and batched
// dispatch.
func (s *Sim) complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	// Failure injection draws from a per-call stream so retries of the same
	// prompt can succeed; skill behaviour below stays prompt-deterministic.
	call := s.calls.Add(1)
	if s.failureRate > 0 {
		failRng := rand.New(rand.NewSource(s.seed ^ (call * 0x9e3779b9)))
		if failRng.Float64() < s.failureRate {
			return Response{}, fmt.Errorf("simulated rate limit: %w", ErrTransient)
		}
	}
	tokens := CountTokens(req.System) + CountTokens(req.Prompt)
	if tokens > s.contextWindow && s.strictContext {
		return Response{}, fmt.Errorf("%d tokens > window %d: %w", tokens, s.contextWindow, ErrContextTooLong)
	}

	var text string
	var refusal bool
	if questions, doc, ok := unpackFilterPrompt(req.Prompt); ok {
		// The packed prompt's modelling assumption, by construction: each
		// line is what the question's solo prompt would have been answered
		// with — same per-question rng, same window cut.
		lines := make([]string, len(questions))
		for i, q := range questions {
			solo := req
			solo.Prompt = FilterPrompt(q, doc)
			// A solo prompt is no longer than the packed one, so it only
			// needs counting when that one overflows the window.
			soloTokens := tokens
			if tokens > s.contextWindow {
				soloTokens = CountTokens(solo.System) + CountTokens(solo.Prompt)
			}
			line, _, err := s.answer(solo, soloTokens)
			if err != nil {
				return Response{}, err
			}
			lines[i] = line
		}
		text = strings.Join(lines, "\n")
	} else {
		var err error
		if text, refusal, err = s.answer(req, tokens); err != nil {
			return Response{}, err
		}
	}
	if req.MaxTokens > 0 {
		text = TruncateTokens(text, req.MaxTokens)
	}
	return Response{
		Text:    text,
		Refusal: refusal,
		Usage:   Usage{Calls: 1, PromptTokens: min(tokens, s.contextWindow), CompletionTokens: CountTokens(text)},
	}, nil
}

// answer runs the skill for one request of the given token count: the rng
// is derived from the whole request, and the model never sees past its
// window.
func (s *Sim) answer(req Request, tokens int) (text string, refusal bool, err error) {
	rng := s.rng(req.System + "\x00" + req.Prompt)
	if tokens > s.contextWindow {
		// Hard truncation.
		req.Prompt = TruncateTokens(req.Prompt, s.contextWindow-CountTokens(req.System))
	}
	return s.dispatch(rng, req)
}

func (s *Sim) dispatch(rng *rand.Rand, req Request) (text string, refusal bool, err error) {
	for _, sk := range s.skills {
		if sk.Match(req) {
			t, err := sk.Run(rng, req)
			return t, false, err
		}
	}
	first, _, _ := strings.Cut(req.Prompt, "\n")
	switch strings.TrimSpace(first) {
	case TaskExtract:
		return s.runExtract(req.Prompt), false, nil
	case TaskFilter:
		return s.runFilter(rng, req.Prompt), false, nil
	case TaskSummarize:
		return s.runSummarize(req.Prompt), false, nil
	case TaskAnswer:
		return s.runAnswer(rng, req.Prompt)
	default:
		// Generic completion: echo a terse acknowledgment summary. Real
		// models free-form here; nothing in the system depends on it.
		return s.genericCompletion(req.Prompt), false, nil
	}
}

// genericCompletion produces a short abstractive-looking reply for prompts
// outside the known task set.
func (s *Sim) genericCompletion(prompt string) string {
	toks := ContentTokens(prompt)
	if len(toks) > 24 {
		toks = toks[:24]
	}
	return "Summary: " + strings.Join(toks, " ")
}

// CompleteBatch runs a grouped completion: each request goes through the
// same deterministic skill path as a solo Complete (so batched and
// unbatched runs produce identical text), but the group is accounted as a
// single upstream call — only the first response carries Calls=1,
// modelling the amortized dispatch of a real batched API.
func (s *Sim) CompleteBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	// One round trip for the whole group.
	if err := s.sleep(ctx); err != nil {
		return nil, err
	}
	resps := make([]Response, len(reqs))
	for i, req := range reqs {
		resp, err := s.complete(ctx, req)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			resp.Usage.Calls = 0
		}
		resps[i] = resp
	}
	return resps, nil
}

var _ Client = (*Sim)(nil)
var _ BatchClient = (*Sim)(nil)
