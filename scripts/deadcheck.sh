#!/usr/bin/env bash
# Dead-export gate, run by `make lint` (and so by CI): fails on any
# exported function or method declared in a non-test file under internal/
# whose name no non-test Go file references outside its declaration. The
# non-test files searched are those under internal/, cmd/, examples/ and
# bench/; the root bench_test.go counts too, because it regenerates the
# paper's tables. Test files and analyzer fixtures (testdata/) count for
# nothing: a function only a test reaches is dead product code.
#
# The check is by name, not by type: a reference to any function, method
# or field of the same name keeps every declaration of it. Comments are
# not references.
#
# ALLOW lists the names that stay although no non-test file calls them by
# name, one reason each: methods that an interface or encoding/json calls,
# and the helpers a test or the paper tables keep on purpose.
#
# Usage: deadcheck.sh       (from anywhere; paths resolve from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

# name          reason
ALLOW="
MarshalJSON     encoding/json calls it (docmodel.Document elides its binary)
AddElement      docmodel's test builder: tests in four packages build documents with it
AddChild        docmodel's test builder, beside AddElement
Cell            the reference the table tests hold Markdown's anchored index to
WithSegmenter   the seam a test plugs a competitor segmentation model into
RunTable1       the Table 1 reference test (internal/layout) runs the four services through it
FormatTable1    renders Table 1 in the paper's layout; the same reference test checks it
"

sources() {
  find internal cmd examples bench -name '*.go' ! -name '*_test.go' \
    ! -path '*/testdata/*' -print
}

# Every identifier in the searched files, comments stripped, one a line.
tokens() {
  { sources; echo bench_test.go; } |
    xargs sed -e 's://.*$::' |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*'
}

# Every exported function and method declared under internal/: "file:line name".
decls() {
  find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
    xargs -0 grep -nE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*(\[|\()' |
    sed -E 's/^([^:]+:[0-9]+):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1 \3/'
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

tokens | sort | uniq -c | awk '{ print $2, $1 }' >"$tmp/uses"
decls >"$tmp/decls"
# A name's declarations each count once in its uses; a name is dead when
# it occurs no more often than it is declared.
awk '{ print $2 }' "$tmp/decls" | sort | uniq -c | awk '{ print $2, $1 }' >"$tmp/declcount"
echo "$ALLOW" | awk 'NF { print $1 }' | sort -u >"$tmp/allow"

dead=$(awk '
  FILENAME == ARGV[1] { uses[$1] = $2; next }
  FILENAME == ARGV[2] { declared[$1] = $2; next }
  FILENAME == ARGV[3] { allow[$1] = 1; next }
  !($2 in allow) && uses[$2] <= declared[$2] { print $1 ": " $2 }
' "$tmp/uses" "$tmp/declcount" "$tmp/allow" "$tmp/decls")

if [ -n "$dead" ]; then
  echo "deadcheck: exported functions no non-test file calls:" >&2
  echo "$dead" | sed 's/^/  /' >&2
  echo "deadcheck: delete them, or add the name to ALLOW in scripts/deadcheck.sh with a reason" >&2
  exit 1
fi
echo "deadcheck: every exported function under internal/ has a caller"
