package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"aryn/internal/docmodel"
	"aryn/internal/docset"
	"aryn/internal/luna"
	"aryn/internal/rag"
	"aryn/internal/resilience"
	"aryn/internal/server/api"
)

// This file implements POST /v1/query: one handler that decodes and
// executes the request, and two writers for the finished execution — a
// single JSON body, or (selected by "Accept: text/event-stream") a stream
// of progress / partial / heartbeat events ending in one terminal result
// or error. Both writers get their body from queryResponse, so the
// terminal SSE result is the JSON response for the same request; a
// /v1/chat turn (chat.go) is shaped by it too, so chat and query share one
// answer and one degraded fallback. docs/streaming-api.md specifies the
// event contract.

// queryOutcome is one finished execution: a Luna result (partial when err
// is set) or the RAG baseline's answer.
type queryOutcome struct {
	res *luna.Result
	rag *rag.Response
	err error
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if !s.decodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	sub, ok := s.decodeSubject(w, r, req.Question, req.Plan)
	if !ok {
		return
	}
	question := sub.label()
	ctx, cancel := s.workCtx(r)
	defer cancel()
	start := time.Now()

	// The RAG baseline answers only when no plan was submitted.
	isRAG := sub.plan == nil && req.RAG
	run := func(hooks luna.StreamHooks) queryOutcome {
		var o queryOutcome
		if isRAG {
			o.rag, o.err = s.sys.AskRAG(ctx, question)
			return o
		}
		// A per-request copy: the hooks must not reach the shared service.
		svc := *s.queryService(req.Optimize)
		svc.Hooks = hooks
		o.res, o.err = sub.execute(ctx, &svc)
		return o
	}
	respond := func(o queryOutcome) (api.QueryResponse, error) {
		return s.queryResponse(r, question, req.IncludePlan, o, start)
	}

	if wantsSSE(r) {
		// The RAG baseline has no executor to observe; it runs to
		// completion and arrives as a single terminal result.
		s.streamQuery(w, r, ctx, !isRAG, run, respond)
		return
	}
	out, err := respond(run(luna.StreamHooks{}))
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, out)
}

// queryResponse turns a finished execution into the response body both
// writers send, and a chat turn's answer. A failure that means "the model
// backend is unavailable" (circuit open or transient failures exhausted),
// while the client is still there, becomes a 200 with a retrieval-only
// fallback tagged degraded — the degradation contract — and the partial
// result's plan detail (per-node error annotations in "executed") rides
// along on request. Any other failure is returned for the error envelope.
func (s *Server) queryResponse(r *http.Request, question string, includePlan bool, o queryOutcome, start time.Time) (api.QueryResponse, error) {
	out := api.QueryResponse{TraceID: traceFrom(r.Context()), Question: question}
	switch {
	case o.err != nil:
		if !resilience.Unavailable(o.err) || r.Context().Err() != nil {
			return out, o.err
		}
		out.Answer, out.Docs = s.sys.RetrievalOnly(question)
		out.Kind = "retrieval-only"
		out.Degraded = true
		out.DegradedReason = o.err.Error()
		s.degradedServed.Add(1)
	case o.rag != nil:
		out.Answer = o.rag.Answer
		if out.Answer == "" {
			out.Answer = o.rag.Text
		}
		out.Kind = "rag"
		out.Docs = o.rag.Retrieved
	default:
		out.Answer = o.res.Answer.String()
		out.Kind = string(o.res.Answer.Kind)
		out.Docs = len(o.res.Docs)
		out.LLM = o.res.LLM
	}
	if includePlan && o.res != nil {
		d := planDetail(&o.res.PlanPreview, o.res.Exec)
		out.Plan = &d
	}
	out.WallMS = time.Since(start).Milliseconds()
	return out, nil
}

// liveTraces collects the pipeline traces an execution registers, and
// renders point-in-time progress snapshots from them.
type liveTraces struct {
	mu     sync.Mutex
	traces []*docset.Trace
}

func (l *liveTraces) add(tr *docset.Trace) {
	l.mu.Lock()
	l.traces = append(l.traces, tr)
	l.mu.Unlock()
}

func (l *liveTraces) progress() api.ProgressEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := api.ProgressEvent{Pipelines: len(l.traces), Nodes: []api.NodeProgress{}}
	for _, tr := range l.traces {
		for _, snap := range tr.Snapshots() {
			ev.Nodes = append(ev.Nodes, api.NodeProgress{
				Name:    snap.Name,
				Tag:     snap.Tag,
				In:      snap.In,
				Out:     snap.Out,
				Batches: snap.Batches,
			})
		}
	}
	return ev
}

// streamQuery is the SSE writer: it runs the execution under hooks that
// feed partial and progress events to the client, so the first result
// rows arrive while upstream operators are still working, then sends the
// terminal event. Once the stream is open every outcome — including
// failure — arrives as an event. With observed false the execution has
// nothing to watch and only the terminal event is sent.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request, ctx context.Context, observed bool,
	run func(luna.StreamHooks) queryOutcome, respond func(queryOutcome) (api.QueryResponse, error)) {
	conn := openSSE(w)
	if conn == nil {
		s.writeError(w, r, http.StatusInternalServerError,
			fmt.Errorf("response writer does not support streaming"))
		return
	}
	// terminal emits the trace event (when a completed execution carries
	// runtime detail) and the terminal result, or the terminal error.
	terminal := func(o queryOutcome) {
		out, err := respond(o)
		if err != nil {
			conn.send(api.EventError, api.ErrorEnvelope{
				Error:   errorBody(statusOf(err), err),
				TraceID: traceFrom(r.Context()),
			})
			return
		}
		if o.err == nil && o.res != nil {
			if executed := executedPlan(&o.res.PlanPreview, o.res.Exec); executed != nil {
				conn.send(api.EventTrace, api.TraceEvent{Executed: executed})
			}
		}
		conn.send(api.EventResult, out)
	}
	if !observed {
		terminal(run(luna.StreamHooks{}))
		return
	}

	live := &liveTraces{}
	partials := make(chan api.PartialEvent, 4) // a few batches of slack between the executor and a client mid-write
	partialSeq := 0
	hooks := luna.StreamHooks{
		// OnPartial runs on the output pipeline's collector goroutine:
		// results are handed to the stream the moment they clear the output
		// node. Blocking on a slow client backpressures the executor through
		// the pipeline's bounded channels instead of buffering unboundedly
		// here.
		OnPartial: func(docs []*docmodel.Document) {
			data, err := json.Marshal(docs)
			if err != nil {
				return
			}
			partialSeq++
			select {
			case partials <- api.PartialEvent{Seq: partialSeq, Count: len(docs), Docs: data}:
			case <-ctx.Done():
			}
		},
		OnTrace: live.add,
	}
	done := make(chan queryOutcome, 1)
	go func() { done <- run(hooks) }()

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	progress := time.NewTicker(s.cfg.StreamProgress)
	defer progress.Stop()

	for {
		select {
		case ev := <-partials:
			conn.send(api.EventPartial, ev)
		case <-progress.C:
			conn.send(api.EventProgress, live.progress())
		case <-heartbeat.C:
			conn.send(api.EventHeartbeat, api.HeartbeatEvent{UptimeMS: time.Since(s.start).Milliseconds()})
		case o := <-done:
			// Flush partials that raced completion so the stream's partial
			// docs always sum to the terminal result's count.
			for {
				select {
				case ev := <-partials:
					conn.send(api.EventPartial, ev)
					continue
				default:
				}
				break
			}
			// A final progress snapshot gives every stream at least one,
			// with the complete counters.
			conn.send(api.EventProgress, live.progress())
			terminal(o)
			return
		case <-ctx.Done():
			// Client gone or deadline hit: cancellation is already tearing
			// execution down. Keep draining the hooks until the executor
			// returns, so it can never block on a dead stream and the
			// admission slot and worker budget release deterministically
			// before the handler (and its gate release) returns.
			for {
				select {
				case <-partials:
				case o := <-done:
					terminal(o)
					return
				}
			}
		}
	}
}
