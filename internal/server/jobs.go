package server

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"sync"
	"time"

	"aryn/internal/docset"
	"aryn/internal/ntsb"
	"aryn/internal/server/api"
)

// This file implements the async ingest-job resource: POST /v1/ingest
// answers 202 with a job handle, a background worker runs the ETL
// pipeline, and GET /v1/jobs/{id} (JSON or SSE) reports live per-stage
// progress. Queries keep serving from the last prepared snapshot for the
// whole run — the new corpus becomes visible only at the final Prepare
// swap inside core.Ingest. Terminal jobs stay pollable until JobTTL.

// errJobsFull is returned by submit when the worker queue is at
// capacity; the handler maps it to 429 like the admission gate.
var errJobsFull = fmt.Errorf("server: ingest job queue full")

// ingestJob is one async ingest run through its lifecycle
// queued → running → done | failed.
type ingestJob struct {
	id      string
	docs    int
	created time.Time

	mu       sync.Mutex
	state    string
	blobs    map[string][]byte // released once the run starts
	err      error
	result   *api.IngestResponse
	trace    *docset.Trace // live pipeline trace while running
	finished time.Time

	// done closes when the job reaches a terminal state (the SSE variant
	// selects on it).
	done chan struct{}
}

// snapshot renders the job resource. Phase and per-stage counters come
// straight from the live execution trace, so polling costs the run
// nothing.
func (j *ingestJob) snapshot(traceID string) api.JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := api.JobResponse{
		TraceID: traceID,
		JobID:   j.id,
		State:   j.state,
		Docs:    j.docs,
		Result:  j.result,
		AgeMS:   time.Since(j.created).Milliseconds(),
	}
	if j.err != nil {
		body := errorBody(statusOf(j.err), j.err)
		out.Error = &body
	}
	if j.trace != nil {
		for _, snap := range j.trace.Snapshots() {
			out.Nodes = append(out.Nodes, api.NodeProgress{
				Name:    snap.Name,
				Tag:     snap.Tag,
				In:      snap.In,
				Out:     snap.Out,
				Batches: snap.Batches,
			})
			// The deepest stage work has reached is the job's phase.
			if snap.In > 0 {
				out.Phase = snap.Name
			}
		}
	}
	return out
}

// jobManager owns ingest jobs: a bounded submission queue, one worker —
// the only thing that starts an ingest, which is what makes ingest runs
// exclusive — and a janitor that reaps terminal jobs after the TTL.
type jobManager struct {
	srv   *Server
	ttl   time.Duration
	queue chan *ingestJob

	mu     sync.Mutex
	jobs   map[string]*ingestJob
	seq    uint64
	reaped int64

	stopOnce    sync.Once
	stop        chan struct{}
	workerDone  chan struct{}
	janitorDone chan struct{}
}

func newJobManager(srv *Server, ttl time.Duration, maxQueued int) *jobManager {
	m := &jobManager{
		srv:         srv,
		ttl:         ttl,
		queue:       make(chan *ingestJob, maxQueued),
		jobs:        make(map[string]*ingestJob),
		stop:        make(chan struct{}),
		workerDone:  make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go m.worker()
	go m.janitor()
	return m
}

// full reports whether a submission right now would be shed. Advisory (a
// slot may free or fill before submit, which holds the authoritative
// check): the handler asks before materializing a corpus it would then
// throw away.
func (m *jobManager) full() bool {
	return len(m.queue) == cap(m.queue)
}

// submit registers a job for blobs and enqueues it (errJobsFull when the
// queue is at capacity).
func (m *jobManager) submit(blobs map[string][]byte) (*ingestJob, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	job := &ingestJob{
		id:      fmt.Sprintf("j%x-%d", m.srv.start.UnixNano()&0xffffff, m.seq),
		docs:    len(blobs),
		created: time.Now(),
		state:   api.JobQueued,
		blobs:   blobs,
		done:    make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		return nil, errJobsFull
	}
	m.jobs[job.id] = job
	return job, nil
}

// get looks up a job (nil when unknown or already reaped).
func (m *jobManager) get(id string) *ingestJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// stats snapshots the job population for /stats.
func (m *jobManager) stats() api.JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := api.JobStats{Reaped: m.reaped}
	for _, j := range m.jobs {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case api.JobQueued:
			st.Queued++
		case api.JobRunning:
			st.Running++
		case api.JobDone:
			st.Done++
		case api.JobFailed:
			st.Failed++
		}
	}
	return st
}

// worker drains the queue one job at a time.
func (m *jobManager) worker() {
	defer close(m.workerDone)
	for {
		select {
		case <-m.stop:
			return
		case job := <-m.queue:
			m.run(job)
		}
	}
}

// run executes one job on the worker goroutine, so queued jobs serialize.
func (m *jobManager) run(job *ingestJob) {
	job.mu.Lock()
	job.state = api.JobRunning
	blobs := job.blobs
	job.blobs = nil
	job.mu.Unlock()

	// The job runs detached from any request context (the submitting
	// client may be long gone) but dies with the manager on shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), m.srv.cfg.IngestTimeout) //lint:allow ctxflow jobs outlive the submitting request by design; the goroutine below ties cancellation to manager shutdown
	defer cancel()
	go func() {
		select {
		case <-m.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	stats, err := m.srv.sys.IngestObserved(ctx, blobs, func(tr *docset.Trace) {
		job.mu.Lock()
		job.trace = tr
		job.mu.Unlock()
	})

	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	if err != nil {
		job.state = api.JobFailed
		job.err = err
	} else {
		job.state = api.JobDone
		job.result = &api.IngestResponse{
			Documents: stats.Documents,
			Chunks:    stats.Chunks,
			Elements:  stats.Elements,
			WallMS:    stats.Wall.Milliseconds(),
			Usage:     stats.Usage,
			LLM:       stats.LLM,
		}
	}
	close(job.done)
}

// janitor reaps terminal jobs once their TTL elapses, so the table stays
// bounded while recent outcomes remain pollable.
func (m *jobManager) janitor() {
	defer close(m.janitorDone)
	period := m.ttl / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			m.mu.Lock()
			for id, j := range m.jobs {
				j.mu.Lock()
				expired := (j.state == api.JobDone || j.state == api.JobFailed) &&
					now.Sub(j.finished) > m.ttl
				j.mu.Unlock()
				if expired {
					delete(m.jobs, id)
					m.reaped++
				}
			}
			m.mu.Unlock()
		}
	}
}

// close stops the worker and janitor, cancelling any in-flight run.
func (m *jobManager) close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.workerDone
	<-m.janitorDone
}

// ---- handlers ----

// handleIngest serves POST /v1/ingest: materialize the corpus, enqueue
// the job, answer 202 with the job handle and a Location header pointing
// at the poll URL. A full queue is refused before materializing: a shed
// request should not pay for a corpus (up to MaxIngestDocs generated
// reports, or a MaxIngestBodyBytes base64 decode) it will throw away.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !s.decodeBody(w, r, s.cfg.MaxIngestBodyBytes, &req) {
		return
	}
	shed := func(err error) {
		w.Header().Set("Retry-After", "5")
		s.writeError(w, r, http.StatusTooManyRequests, err)
	}
	if s.jobs.full() {
		shed(errJobsFull)
		return
	}
	blobs, err := s.ingestBlobs(req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	job, err := s.jobs.submit(blobs)
	if err != nil {
		shed(err)
		return
	}
	loc := "/v1/jobs/" + job.id
	w.Header().Set("Location", loc)
	s.writeJSON(w, http.StatusAccepted, api.JobAccepted{
		TraceID:  traceFrom(r.Context()),
		JobID:    job.id,
		State:    api.JobQueued,
		Location: loc,
	})
}

// ingestBlobs materializes the request's document set: decoded client
// blobs when provided, a generated NTSB corpus otherwise.
func (s *Server) ingestBlobs(req IngestRequest) (map[string][]byte, error) {
	if len(req.Blobs) > 0 {
		blobs := make(map[string][]byte, len(req.Blobs))
		for id, b64 := range req.Blobs {
			raw, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return nil, fmt.Errorf("blob %q: invalid base64: %w", id, err)
			}
			blobs[id] = raw
		}
		return blobs, nil
	}
	if req.Docs <= 0 {
		return nil, fmt.Errorf("provide blobs or a positive docs count")
	}
	if req.Docs > s.cfg.MaxIngestDocs {
		return nil, fmt.Errorf("docs %d exceeds the per-request cap %d", req.Docs, s.cfg.MaxIngestDocs)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 42
	}
	corpus, err := ntsb.GenerateCorpus(req.Docs, seed)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	return corpus.Blobs()
}

// handleJob serves GET /v1/jobs/{id}: the JSON snapshot, or — with
// Accept: text/event-stream — progress events until the job reaches a
// terminal state, which arrives as the stream's "result" event.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := s.jobs.get(id)
	if job == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown or expired job %q", id))
		return
	}
	if wantsSSE(r) {
		s.handleJobStream(w, r, job)
		return
	}
	s.writeJSON(w, http.StatusOK, job.snapshot(traceFrom(r.Context())))
}

func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request, job *ingestJob) {
	conn := openSSE(w)
	if conn == nil {
		s.writeError(w, r, http.StatusInternalServerError,
			fmt.Errorf("response writer does not support streaming"))
		return
	}
	trace := traceFrom(r.Context())
	progress := time.NewTicker(s.cfg.StreamProgress)
	defer progress.Stop()
	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-progress.C:
			conn.send(api.EventProgress, job.snapshot(trace))
		case <-heartbeat.C:
			conn.send(api.EventHeartbeat, api.HeartbeatEvent{UptimeMS: time.Since(s.start).Milliseconds()})
		case <-job.done:
			conn.send(api.EventResult, job.snapshot(trace))
			return
		case <-r.Context().Done():
			return
		}
	}
}
