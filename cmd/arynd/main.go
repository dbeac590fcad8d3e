// Command arynd runs Aryn as a long-lived network service: it boots a
// wired core.System, optionally warm-starts the LLM response cache and
// pre-ingests a synthetic corpus, and serves the concurrent query layer
// (internal/server) with graceful shutdown — the deployment shape of the
// paper, where DocParse and Luna sit behind endpoints that many analysts
// hit at once.
//
// Usage:
//
//	arynd -addr :8088 -docs 200                      # boot with a corpus
//	arynd -addr :8088 -llm-cache /var/aryn/llm.cache # warm-start + persist
//	curl -s localhost:8088/v1/healthz
//	curl -s -X POST localhost:8088/v1/query -d '{"question":"How many incidents were there?"}'
//
// Plans are first-class (§6.2 inspect→edit→re-run): POST /v1/plan returns
// the validated DAG plan without executing it, and POST /v1/query accepts
// an edited plan back:
//
//	curl -s -X POST localhost:8088/v1/plan  -d '{"question":"How many incidents were there?"}'
//	curl -s -X POST localhost:8088/v1/query -d '{"plan":{"nodes":[{"id":"n1","op":"queryDatabase"},{"id":"n2","op":"count","inputs":["n1"]}],"output":"n2"}}'
//
// Every route lives under /v1 and nowhere else. "Accept:
// text/event-stream" on POST /v1/query streams partial results over SSE,
// and POST /v1/ingest runs ingest as an async job polled at
// GET /v1/jobs/{id} — see docs/streaming-api.md for the wire contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aryn/internal/core"
	"aryn/internal/fault"
	"aryn/internal/ntsb"
	"aryn/internal/resilience"
	"aryn/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8088", "listen address")
		docs        = flag.Int("docs", 0, "pre-ingest this many synthetic NTSB accidents at boot (0 = start empty)")
		seed        = flag.Int64("seed", 42, "corpus seed for -docs")
		sysSeed     = flag.Int64("system-seed", 7, "system (LLM/models) seed")
		parallelism = flag.Int("parallelism", 8, "Sycamore stage parallelism")
		llmCache    = flag.String("llm-cache", "", "LLM response cache path: warm-start from it at boot, persist back on shutdown")
		maxInFlight = flag.Int("max-inflight", 16, "max concurrently executing requests")
		maxWaiters  = flag.Int("max-waiters", 64, "max requests queued for a slot before shedding 429s")
		queueWait   = flag.Duration("queue-wait", 2*time.Second, "max time a queued request waits for a slot")
		sessionTTL  = flag.Duration("session-ttl", 30*time.Minute, "idle chat session eviction TTL")
		maxSessions = flag.Int("max-sessions", 1024, "max live chat sessions")
		qryTimeout  = flag.Duration("query-timeout", 60*time.Second, "per-query/chat execution deadline (0 = unlimited)")
		heartbeat   = flag.Duration("stream-heartbeat", 10*time.Second, "SSE heartbeat cadence on streamed responses")
		progress    = flag.Duration("stream-progress", 250*time.Millisecond, "SSE progress-snapshot cadence on streamed responses")
		jobTTL      = flag.Duration("job-ttl", 10*time.Minute, "how long terminal ingest jobs stay pollable before reaping")
		maxJobs     = flag.Int("max-queued-jobs", 4, "max ingest jobs waiting for the worker before shedding 429s")
		faultSpec   = flag.String("fault-spec", "", "activate this JSON fault spec at boot (implies -fault-endpoint; see docs/fault-injection.md)")
		faultEP     = flag.Bool("fault-endpoint", false, "expose the dev-only /v1/faults chaos-control endpoint")
		optimize    = flag.Bool("optimize", false, "run the optimize phase (proxy cascades in front of llmFilters, llmExtracts scoped to a section) by default; the per-request \"optimize\" field overrides. The exact rewrites (filter hoisting, llmFilter fusion) always run")
		feedback    = flag.String("feedback", "", "optimizer feedback-store path: warm-start from it at boot, persist back on shutdown")
	)
	flag.Parse()

	cfg := server.Config{
		MaxInFlight:     *maxInFlight,
		MaxWaiters:      *maxWaiters,
		QueueWait:       *queueWait,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		RequestTimeout:  *qryTimeout,
		StreamHeartbeat: *heartbeat,
		StreamProgress:  *progress,
		JobTTL:          *jobTTL,
		MaxQueuedJobs:   *maxJobs,
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = -1 // 0 on the flag means unlimited
	}
	var inj *fault.Injector
	if *faultSpec != "" || *faultEP {
		spec := fault.Spec{}
		if *faultSpec != "" {
			var err error
			if spec, err = fault.ParseSpec(*faultSpec); err != nil {
				fmt.Fprintln(os.Stderr, "arynd:", err)
				os.Exit(1)
			}
		}
		inj = fault.New(spec)
		cfg.Fault = inj
	}

	if err := run(*addr, *docs, *seed, *sysSeed, *parallelism, *llmCache, *optimize, *feedback, inj, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "arynd:", err)
		os.Exit(1)
	}
}

func run(addr string, docs int, seed, sysSeed int64, parallelism int, llmCache string, optimize bool, feedback string, inj *fault.Injector, cfg server.Config) error {
	sys := core.New(core.Config{
		Seed:         sysSeed,
		Parallelism:  parallelism,
		LLMCachePath: llmCache,
		Optimize:     optimize,
		FeedbackPath: feedback,
		// The daemon always serves with the resilience middleware: retries
		// with jittered backoff, the per-backend circuit breaker behind
		// /v1/stats, and degraded-mode serving when the breaker opens.
		Resilience: &resilience.Options{},
		Fault:      inj,
	})
	if inj != nil {
		if inj.Spec().Active() {
			log.Printf("arynd: fault injection ACTIVE at boot (dev only)")
		} else {
			log.Printf("arynd: /v1/faults chaos endpoint enabled (dev only)")
		}
	}
	if llmCache != "" {
		log.Printf("arynd: LLM cache warm-start from %s", llmCache)
	}
	if optimize {
		log.Printf("arynd: optimize phase (proxy cascades, scoped extracts) ON by default")
	}
	if feedback != "" {
		log.Printf("arynd: optimizer feedback warm-start from %s (%d signatures)", feedback, sys.OptimizerStats().Entries)
	}

	if docs > 0 {
		log.Printf("arynd: ingesting %d synthetic NTSB accidents (seed %d)...", docs, seed)
		corpus, err := ntsb.GenerateCorpus(docs, seed)
		if err != nil {
			return err
		}
		blobs, err := corpus.Blobs()
		if err != nil {
			return err
		}
		stats, err := sys.Ingest(context.Background(), blobs)
		if err != nil {
			return err
		}
		log.Printf("arynd: ingested %d documents / %d chunks in %s (%d LLM calls)",
			stats.Documents, stats.Chunks, stats.Wall.Round(time.Millisecond), stats.Usage.Calls)
	}

	srv := server.New(sys, cfg)
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("arynd: listening on %s (max-inflight=%d max-waiters=%d)",
			addr, cfg.MaxInFlight, cfg.MaxWaiters)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case sig := <-sigc:
		log.Printf("arynd: %s received, draining...", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("arynd: shutdown: %v", err)
		}
	}

	if llmCache != "" {
		if err := sys.SaveLLMCache(llmCache); err != nil {
			log.Printf("arynd: persist LLM cache: %v", err)
		} else {
			log.Printf("arynd: LLM cache persisted to %s", llmCache)
		}
	}
	if feedback != "" {
		if err := sys.SaveFeedback(feedback); err != nil {
			log.Printf("arynd: persist optimizer feedback: %v", err)
		} else {
			log.Printf("arynd: optimizer feedback persisted to %s", feedback)
		}
	}
	return nil
}
