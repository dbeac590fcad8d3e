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

.PHONY: build test lint staticcheck print-staticcheck-version govulncheck print-govulncheck-version arynvet-bin vet-custom smoke bench bench-e2e docs-check cover fuzz-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

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

# Documentation gates: every internal/ package has a doc.go package
# comment, and every relative markdown link resolves. Hermetic (no
# network, no Go toolchain); CI runs it as its own job, separate from
# the build matrix.
docs-check:
	./scripts/docscheck.sh

# Bench smoke: every paper-table, figure and ablation benchmark compiles
# and completes one iteration, so bench_test.go cannot silently rot. Full
# runs use -benchtime=default. These regenerate the paper's numbers; how
# fast the system is, is measured by bench/ alone (go run -C bench .). Two
# print sizes next to each other in every CI log: BenchmarkStoreFootprint
# (heap per stored report and per chunk) and BenchmarkExactScan (bytes per
# vector row, rows scored per second).
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
# the optimization-loop packages (internal/cost, internal/luna,
# internal/docset, internal/llm), the retrieval pair (internal/index,
# internal/embed), the serving pair (internal/server,
# internal/resilience) and internal/docmodel. CI uploads coverage.out as
# an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	./scripts/covercheck.sh coverage.out

# Short native-fuzz smoke: the plan surface (decode, validate, and the
# cost-rewrite phase each fuzz briefly beyond their seed corpora,
# testdata/fuzz/), the first persisted-file loader, the index snapshot
# (an error or a usable store, never a panic), and the vector row codec
# (any finite float32 row: unit decoded norm, encode∘decode idempotent). One
# -fuzz pattern per invocation — go test allows only a single fuzzing target
# at a time.
fuzz-smoke:
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzPlanDecode$$' -fuzztime 10s
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzValidatePlan$$' -fuzztime 10s
	$(GO) test ./internal/luna/ -run '^$$' -fuzz '^FuzzCostRewrite$$' -fuzztime 10s
	$(GO) test ./internal/index/ -run '^$$' -fuzz '^FuzzIndexLoad$$' -fuzztime 10s
	$(GO) test ./internal/index/ -run '^$$' -fuzz '^FuzzVectorCodec$$' -fuzztime 10s

# Source size: non-test Go lines under internal/ and cmd/ (bench/ is a
# module of its own and stays out), per package and in total — the number
# a simplicity change reports at its parent commit and at itself. CI
# prints it in the build job.
loc:
	./scripts/loc.sh

ci: build lint staticcheck vet-custom test bench bench-e2e
