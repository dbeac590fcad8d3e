#!/usr/bin/env bash
# Source size, run by `make loc` and printed in the CI build job: lines of
# non-test Go under internal/ and cmd/, per package and in total. It is
# the number a simplicity change reports at its parent and at itself
# (ROADMAP aim 2), so it counts raw lines of the files as committed —
# _test.go files and bench/ (a module of its own) stay out.
#
# Usage: loc.sh            (from anywhere; paths resolve from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
find internal cmd -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 wc -l |
  awk '
    $2 == "total" { next }          # wc prints one per xargs batch
    {
      pkg = $2
      sub(/\/[^\/]*$/, "", pkg)     # drop the file name, keep the package path
      lines[pkg] += $1
      total += $1
    }
    END {
      for (pkg in lines) printf "loc: %-36s %6d\n", pkg, lines[pkg] | "sort"
      close("sort")
      printf "loc: %-36s %6d\n", "total", total
    }
  '
