# Developer and CI entry points. CI (.github/workflows/ci.yml) runs the
# same targets (make ci across an os×Go matrix, plus smoke and bench-e2e
# jobs), so a green `make ci` locally means a green pipeline.

GO ?= go
# Pinned staticcheck release; CI installs exactly this and caches it.
STATICCHECK_VERSION ?= 2025.1.1
# Pinned govulncheck release; CI installs exactly this and caches it.
GOVULNCHECK_VERSION ?= v1.1.4
# Where the arynvet vet tool is built; override for a custom location.
ARYNVET_BIN ?= $(CURDIR)/.bin/arynvet

.PHONY: build test lint fmacheck staticcheck print-staticcheck-version govulncheck print-govulncheck-version arynvet-bin vet-custom smoke examples bench bench-e2e docs-check cover fuzz-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# vet, gofmt, and the dead-code gate: every function and method under
# internal/ has a non-test user, resolved by type (scripts/deadcheck.sh
# runs TestNoDeadCode, deadcode_test.go, which holds the allowlist).
lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	./scripts/deadcheck.sh

# The same bytes on every GOARCH: cross-compile internal/ and cmd/ for
# arm64, ppc64le, s390x and riscv64 with -gcflags=-S and fail on any
# fused multiply-add, naming its source line (scripts/fmacheck.sh; a
# product is rounded with an explicit conversion, float64(x*y) + z).
fmacheck:
	./scripts/fmacheck.sh

# Static analysis beyond vet. Skips with a notice when the binary is not
# installed (the dev container has no network); CI always installs the
# pinned version, so findings cannot land unseen.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# CI derives its install/cache pin from here so the version lives in
# exactly one place.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

# Known-vulnerability scan. Like staticcheck: skips with a notice when
# the binary is absent (no network in the dev container); CI installs
# the pinned version in its own non-blocking job.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

# Build the arynvet vet tool and print its path, so callers can say
# `go vet -vettool=$(make -s arynvet-bin) ./...`. Built from source
# every time (go build is incremental, so this is cheap).
arynvet-bin:
	@mkdir -p $(dir $(ARYNVET_BIN))
	@$(GO) build -o $(ARYNVET_BIN) ./cmd/arynvet
	@echo $(ARYNVET_BIN)

# The repo's custom analyzer suite (determinism, lockheld, ctxflow,
# wirestable, sseorder) over the whole tree. Any diagnostic fails the
# target; sanctioned exceptions carry //lint:allow markers in the source.
# See docs/static-analysis.md.
vet-custom:
	@bin=$$($(MAKE) -s arynvet-bin) && $(GO) vet -vettool=$$bin ./...

# End-to-end serving smoke: boot arynd with -fault-endpoint, health check,
# ingest→query→chat round-trip over HTTP, one GET of /v1/faults, graceful
# shutdown.
smoke:
	./scripts/smoke.sh

# Every program under examples/ builds and runs to a zero exit within
# 120 s (scripts/examples.sh; go vet only type-checks them).
examples:
	./scripts/examples.sh

# Documentation gates: every internal/ package has a doc.go package
# comment, and every relative markdown link resolves. Hermetic (no
# network, no Go toolchain); CI runs it as its own job, separate from
# the build matrix.
docs-check:
	./scripts/docscheck.sh

# Bench smoke: every paper-table, figure and ablation benchmark compiles
# and completes one iteration, so bench_test.go cannot silently rot. Full
# runs use -benchtime=default. These regenerate the paper's numbers; how
# fast the system is, is measured by bench/ alone (go run -C bench .).
# Some print sizes next to each other in every CI log:
# BenchmarkStoreFootprint (heap per stored report and per chunk),
# BenchmarkIngest (wall time and peak live heap of ingesting 1,545
# reports with resilience on and a 5 ms model round trip),
# BenchmarkIngestDispatches (upstream dispatches of ingesting corpus 42,
# and requests per dispatch), BenchmarkExactSearch (a top-10 search over
# 7,635 rows of 1,024 on the simd kernel and on the Go loop, at one shard
# and at GOMAXPROCS: ns/op, row bytes scanned per second, bytes per vector
# row), BenchmarkRawdocCodec (encode and decode time and allocations per
# report, blob bytes per report), BenchmarkTokenDirection (ns and
# allocations per generated token direction, against the math/rand path it
# reproduces), BenchmarkEmbedCorpus (directions generated and the
# direction cache's hit ratio embedding corpus 42's chunks),
# BenchmarkPlanRepeat (ns and planning dispatches per re-asked question
# whose answer a one-entry response cache has evicted: 0 dispatches, the
# planner keeps its validated plans), BenchmarkCacheCyclic (the LLM
# response cache's hit ratio on a cyclic working set three times its
# capacity with a reused subset: 0.319 under SIEVE, where LRU reads 0.167)
# and BenchmarkColdPass (corpus 42's 30 questions with nothing cached, in
# process and with no model latency: ns/op is the pass's cost, sim-ms/op
# the simulated model's share of it, its busy time summed over dispatches).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# End-to-end benchmark smoke: bench/ is a module of its own (see
# bench/README.md), so `go build ./... && go test ./...` at the root
# neither builds nor runs it. This vets it and runs its unit tests plus a
# short run of every workload (≈ 15 s), so a change that breaks a seam
# bench/ binds to fails here instead of in the benchmark driver.
bench-e2e:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage gate: merged profile over ./..., then per-package floors for
# the optimization-loop packages (internal/luna, internal/docset,
# internal/llm), the retrieval pair (internal/index,
# internal/embed, and internal/simd under both), the serving pair
# (internal/server, internal/resilience), internal/docmodel and
# internal/rawdoc. CI uploads coverage.out as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	./scripts/covercheck.sh coverage.out

# Short native-fuzz smoke: the plan surface (decode, validate, and the
# cost-rewrite phase each fuzz briefly beyond their seed corpora,
# testdata/fuzz/), the vector row codec (any finite float32 row: unit
# decoded norm, encode∘decode idempotent) and the rawdoc blob decoder
# /v1/ingest feeds client bytes (an error or a document, never a panic,
# never a heap much past the blob's size; its minimizing is capped at
# 1s, or shrinking one ≈ 9 KB seed blob eats the whole burst), the simd
# dot-product kernel (any query inside its exactness bound against any
# codes: the int64 loop's sum, to the bit) and the filter prompt (any
# questions, document ID and text, inside the Sim's context window and
# past it: the packed prompt reads back to them, and the Sim's packed
# reply is its solo replies, line by line), and the persisted-file
# loader: the LLM response cache (an error or a cache that serves what
# it loaded, never a panic; minimizing capped at 1s like the rawdoc
# decoder's), and the serving wire: any
# /v1/query, /v1/plan, /v1/chat or /v1/ingest body decodes or is a 4xx
# error envelope, never a panic, and every SSE event the emitter sends
# reads back in order with its id, name and payload, and the BM25 posting
# lists (any ascending ordinals with tf ≥ 1 decode back exactly, and
# scores over generated chunks equal a plain-posting scorer's to the bit),
# and the embedder's direction generator (for any seed, its first 1,100
# draws are math/rand's NormFloat64 stream to the bit; on amd64), and the
# stored text view (any element tree — furniture, tables, pictures with,
# without and with an empty summary, empty texts, child nodes — reads
# through the view's table byte for byte as through the reference view of
# Elements it replaced), and the simulated model's own machinery: its
# generator (internal/randsrc: for any seed, Int63, Uint64, Float64, Intn
# and NormFloat64 draw math/rand's values to the bit; on amd64) and each
# text scanner of its filter and extract skills against the regular
# expression it replaced (sentences, "Key: Value" lines, the probable-cause
# statement, damaged parts), the filter skill's one-pass lowering against
# strings.ToLower of the rows it keeps, and its verdict (any question, any
# document, coin included) against the skill as it read before them.
# One -fuzz pattern
# per invocation — go test allows only a single fuzzing target at a time.
fuzz-smoke:
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzPlanDecode$$' -fuzztime 10s
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzValidatePlan$$' -fuzztime 10s
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzCostRewrite$$' -fuzztime 10s
	$(GO) test ./internal/index/ -run '^$$' -fuzz '^FuzzVectorCodec$$' -fuzztime 10s
	$(GO) test ./internal/index/ -run '^$$' -fuzz '^FuzzPostings$$' -fuzztime 10s
	$(GO) test ./internal/embed/ -run '^$$' -fuzz '^FuzzDirectionSource$$' -fuzztime 10s
	$(GO) test ./internal/docmodel/ -run '^$$' -fuzz '^FuzzTextView$$' -fuzztime 10s
	$(GO) test ./internal/rawdoc/ -run '^$$' -fuzz '^FuzzRawdocDecode$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/simd/ -run '^$$' -fuzz '^FuzzDotKernel$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzFilterPrompt$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzCacheLoad$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/randsrc/ -run '^$$' -fuzz '^FuzzSource$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzSentences$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzKVLine$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzCauseTail$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzDamageParts$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzMatchText$$' -fuzztime 10s
	$(GO) test ./internal/llm/ -run '^$$' -fuzz '^FuzzFilterMatch$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzDecodeBody$$' -fuzztime 10s
	$(GO) test ./internal/server/ -run '^$$' -fuzz '^FuzzSSERoundTrip$$' -fuzztime 10s

# Source size: non-test Go lines under internal/ and cmd/ (bench/ is a
# module of its own and stays out), per package and in total — the number
# a simplicity change reports at its parent commit and at itself. CI
# prints it in the build job.
loc:
	./scripts/loc.sh

ci: build lint fmacheck staticcheck vet-custom test examples bench bench-e2e
