#!/usr/bin/env bash
# Dead-code gate, run by `make lint` (and so by CI): TestNoDeadCode in the
# root package (deadcode_test.go) type-checks every non-test package in
# internal/, cmd/, examples/ and bench/, plus the root bench_test.go, and
# fails, naming file:line, on any function or method declared in a
# non-test file under internal/ that none of them uses. It resolves uses
# by type, not by name; keepers are allowlisted there by qualified name,
# one reason each. The same test runs in tier-1 (go test ./...).
#
# Usage: deadcheck.sh       (from anywhere; paths resolve from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
go test -count=1 -run '^TestNoDeadCode$' .
