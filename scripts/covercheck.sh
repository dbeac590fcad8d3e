#!/usr/bin/env bash
# Per-package coverage floors, run by `make cover` and the CI coverage
# job. Reads a merged coverage profile (go test -coverprofile over ./...)
# and computes statement coverage per package; packages listed in FLOORS
# must meet their floor or the script fails, listing every violation.
#
# The floors guard the optimization loop: internal/luna (planning,
# rewriting, the optimize phase, the plan estimate), internal/docset (execution, including the scoped filter) and
# internal/llm (the call middleware every model token passes through, and
# the Sim); and the retrieval pair under it, internal/index and
# internal/embed, whose every score is pinned to the bit, with
# internal/simd, the kernels both run on AVX2 CPUs; and the serving
# pair, internal/server and internal/resilience; and internal/docmodel,
# whose Sections() the scoped extract builds its prompts from; and
# internal/rawdoc, whose decoder reads client bytes from /v1/ingest. Floors
# are set below current coverage so they catch erosion, not noise.
#
# Usage: covercheck.sh <coverage-profile>
set -uo pipefail

profile="${1:-coverage.out}"
if [ ! -f "$profile" ]; then
  echo "covercheck: profile not found: $profile" >&2
  echo "covercheck: run: go test -coverprofile=$profile ./..." >&2
  exit 1
fi

# package -> minimum percent of statements covered
FLOORS="
aryn/internal/luna 88
aryn/internal/docset 88
aryn/internal/docmodel 85
aryn/internal/llm 91
aryn/internal/index 94
aryn/internal/embed 96
aryn/internal/simd 81
aryn/internal/server 88
aryn/internal/resilience 88
aryn/internal/rawdoc 92
"

awk -v floors="$FLOORS" '
BEGIN {
  n = split(floors, lines, "\n")
  for (i = 1; i <= n; i++) {
    if (split(lines[i], f, " ") == 2) floor[f[1]] = f[2] + 0
  }
}
/^mode:/ { next }
{
  # file.go:start.col,end.col numStmts hitCount
  split($1, parts, ":")
  pkg = parts[1]
  sub(/\/[^\/]*$/, "", pkg)   # drop the file name, keep the package path
  stmts[pkg] += $2
  if ($3 > 0) covered[pkg] += $2
}
END {
  fail = 0
  for (pkg in stmts) {
    pct = stmts[pkg] > 0 ? 100 * covered[pkg] / stmts[pkg] : 0
    printf "covercheck: %-28s %6.1f%%", pkg, pct
    if (pkg in floor) {
      printf "  (floor %d%%)", floor[pkg]
      if (pct < floor[pkg]) { printf "  FAIL"; fail = 1; bad = bad sprintf("\n  %s: %.1f%% < %d%%", pkg, pct, floor[pkg]) }
      seen[pkg] = 1
    }
    printf "\n"
  }
  for (pkg in floor) {
    if (!(pkg in seen)) { fail = 1; bad = bad sprintf("\n  %s: no statements in profile", pkg) }
  }
  if (fail) {
    printf "covercheck: coverage floors violated:%s\n", bad > "/dev/stderr"
    exit 1
  }
}
' "$profile" | sort
exit "${PIPESTATUS[0]}"
