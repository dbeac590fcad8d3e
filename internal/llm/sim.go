package llm

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"aryn/internal/randsrc"
)

// The Sim's fixed parameters. Each reproduces a behaviour the paper
// observes of GPT-4o-class models (see doc.go).
const (
	// simName is the model name the Sim reports.
	simName = "sim-gpt"
	// contextWindow is the prompt token budget; a prompt past it is
	// truncated, never rejected.
	contextWindow = 8192
	// filterLeniency is the probability that a weak single-concept match
	// still passes an llmFilter: the paper's "occasionally too generous"
	// filter (§7.2).
	filterLeniency = 0.85
	// attendItems caps how many context items the answer skill attends
	// to: the "lost in the middle" effect [Liu et al. 2023].
	attendItems = 30
	// refusalRatio is the fraction of visible context chunks that must
	// carry liability boilerplate before a fault-adjacent question is
	// refused (§7.2 context poisoning).
	refusalRatio = 0.08
)

// Sim is the deterministic heuristic language model. It dispatches on the
// task marker in the prompt and runs the matching skill. Its one
// stochastic behaviour, filter leniency, is seeded per request so runs
// are reproducible; failures are injected around it (internal/fault), not
// by it.
type Sim struct {
	seed    int64
	latency time.Duration
	skills  []Skill
	busy    atomic.Int64 // nanoseconds spent answering (Busy)
}

// Skill extends the Sim with a custom task handler (e.g. Luna's planner).
type Skill interface {
	// Match reports whether this skill handles the request. It decides on
	// the prompt's task marker, its first line, so a packed filter prompt
	// and the solo prompts of its questions go to the same skill.
	Match(req Request) bool
	// Run produces the completion text. rng is seeded per request and
	// valid only during the call.
	Run(rng *rand.Rand, req Request) (string, error)
}

// SimOption configures a Sim.
type SimOption func(*Sim)

// WithLatency adds a fixed per-dispatch delay modelling network round-trip
// to a hosted model. A batched dispatch (CompleteBatch) pays it once for
// the whole group — the amortization that makes batching worthwhile.
func WithLatency(d time.Duration) SimOption { return func(s *Sim) { s.latency = d } }

// NewSim builds the simulated model with the given seed.
func NewSim(seed int64, opts ...SimOption) *Sim {
	s := &Sim{seed: seed}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name identifies the model.
func (s *Sim) Name() string { return simName }

// Register adds a custom skill, consulted before the built-in ones.
func (s *Sim) Register(sk Skill) { s.skills = append(s.skills, sk) }

// requestSource is one request's generator: math/rand's stream for seed
// ^ FNV-1a(a + "\x00" + b), the Sim's seed and the request's key, made
// and seeded on its first draw, so an answer that draws nothing hashes
// and seeds nothing.
type requestSource struct {
	seed int64
	a, b string
	src  *randsrc.Source // nil until the first draw
}

// source returns the generator of a request keyed on (a, b).
func (s *Sim) source(a, b string) *requestSource {
	return &requestSource{seed: s.seed, a: a, b: b}
}

// key sets the request key the generator is seeded from; it must not have
// drawn yet.
func (r *requestSource) key(a, b string) { r.a, r.b = a, b }

// Seed seeds the generator now, whatever its key.
func (r *requestSource) Seed(seed int64) {
	if r.src == nil {
		r.src = new(randsrc.Source)
	}
	r.src.Seed(seed)
}

// Uint64 is the next draw, seeding the generator first if it has not.
func (r *requestSource) Uint64() uint64 {
	if r.src == nil {
		r.Seed(r.seed ^ int64(fnv64a(r.a, r.b)))
	}
	return r.src.Uint64()
}

// Int63 is rand.Source's Int63 over Uint64.
func (r *requestSource) Int63() int64 { return int64(r.Uint64() & math.MaxInt64) }

// fnv64a is the 64-bit FNV-1a hash of a + "\x00" + b, without building
// that string.
func fnv64a(a, b string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime
	}
	h *= prime // the separator: h ^= 0
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	return h
}

// Busy is the wall time the Sim has spent answering, summed over its
// dispatches: everything but the round-trip latency it models. It is the
// part of a run's time a hosted model would spend elsewhere.
func (s *Sim) Busy() time.Duration { return time.Duration(s.busy.Load()) }

// timeBusy adds the time since start to the Sim's busy time.
func (s *Sim) timeBusy(start time.Time) { s.busy.Add(int64(time.Since(start))) }

// Complete implements Client.
func (s *Sim) Complete(ctx context.Context, req Request) (Response, error) {
	if err := s.sleep(ctx); err != nil {
		return Response{}, err
	}
	defer s.timeBusy(time.Now())
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
	tokens := CountTokens(req.System) + CountTokens(req.Prompt)

	var text string
	var refusal bool
	if questions, docID, doc, ok := unpackFilterPrompt(req.Prompt); ok {
		// The packed prompt's modelling assumption, by construction: each
		// line is what the question's solo prompt would have been answered
		// with — same per-question rng, same window cut. Inside the window
		// the filter skill reads a question straight from the packed
		// prompt's parts (soloFilter), where they read as the solo prompt
		// would.
		lines := make([]string, len(questions))
		direct := tokens <= contextWindow && s.skill(req) == nil
		for i, q := range questions {
			if direct {
				if line, ok := s.soloFilter(q, docID, doc); ok {
					lines[i] = line
					continue
				}
			}
			solo := req
			solo.Prompt = FilterPrompt(q, docID, doc)
			// A solo prompt is no longer than the packed one, so it only
			// needs counting when that one overflows the window.
			soloTokens := tokens
			if tokens > contextWindow {
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
		Usage:   Usage{Calls: 1, PromptTokens: min(tokens, contextWindow), CompletionTokens: CountTokens(text)},
	}, nil
}

// answer runs the skill for one request of the given token count: the rng
// is keyed on the whole request, and the model never sees past its window.
func (s *Sim) answer(req Request, tokens int) (text string, refusal bool, err error) {
	src := s.source(req.System, req.Prompt)
	if tokens > contextWindow {
		// Hard truncation.
		req.Prompt = TruncateTokens(req.Prompt, contextWindow-CountTokens(req.System))
	}
	return s.dispatch(src, req)
}

// soloFilter answers question q of a packed prompt about doc, the
// document docID, as the filter skill answers q's solo prompt,
// FilterPrompt(q, docID, doc), without building it: the skill reads the
// question, the DOCUMENT-ID line and the document from their places in
// that prompt, and they are where it looks unless q holds a newline, q or
// the ID line a document opener, or there is no ID line; then ok is false
// and the solo prompt must be read.
func (s *Sim) soloFilter(q, docID, doc string) (line string, ok bool) {
	idLine := documentIDLine(docID)
	if idLine == "" || strings.Contains(q, "\n") || strings.Contains(q, docOpen) || strings.Contains(idLine, docOpen) {
		return "", false
	}
	if end := strings.Index(doc, docClose); end >= 0 {
		doc = doc[:end]
	}
	return s.filterVerdict(s.source("", ""), strings.TrimSpace(q), strings.TrimSuffix(idLine, "\n"), strings.TrimSpace(doc)), true
}

// skill returns the registered skill that takes req, or nil.
func (s *Sim) skill(req Request) Skill {
	for _, sk := range s.skills {
		if sk.Match(req) {
			return sk
		}
	}
	return nil
}

func (s *Sim) dispatch(src *requestSource, req Request) (text string, refusal bool, err error) {
	if sk := s.skill(req); sk != nil {
		t, err := sk.Run(rand.New(src), req)
		return t, false, err
	}
	first, _, _ := strings.Cut(req.Prompt, "\n")
	switch strings.TrimSpace(first) {
	case TaskExtract:
		return s.runExtract(req.Prompt), false, nil
	case TaskFilter:
		return s.runFilter(src, req.Prompt), false, nil
	case TaskSummarize:
		return s.runSummarize(req.Prompt), false, nil
	case TaskAnswer:
		return s.runAnswer(rand.New(src), req.Prompt)
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
	defer s.timeBusy(time.Now())
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
