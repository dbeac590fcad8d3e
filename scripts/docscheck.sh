#!/usr/bin/env bash
# Documentation gates, run by `make docs-check` and the CI docs job:
#
#   1. every internal/ package carries a doc.go whose package comment
#      documents the package (role / paper counterpart / concurrency
#      contract live there, per ARCHITECTURE.md);
#   2. every cmd/ binary carries a '// Command <name> ...' package
#      comment in some .go file (usage and role documented at the top);
#   3. every relative markdown link in *.md and docs/ resolves to a file
#      or directory that exists (external http(s) links are not fetched —
#      the gate is hermetic);
#   4. every docs/*.md page is linked from at least one other markdown
#      file (no orphaned documentation);
#   5. every backticked internal/, cmd/, scripts/ or examples/ path in
#      the current documentation exists on disk (ROADMAP.md and
#      CHANGES.md are history and stay out).
#
# Fails with a list of every problem found, not just the first.
set -uo pipefail

cd "$(dirname "$0")/.."

fail=0

# ---- 1. per-package doc.go coverage ----
for dir in internal/*/; do
  pkg=$(basename "$dir")
  doc="$dir/doc.go"
  if [ ! -f "$doc" ]; then
    echo "docscheck: $dir has no doc.go" >&2
    fail=1
    continue
  fi
  if ! grep -q "^// Package $pkg " "$doc"; then
    echo "docscheck: $doc lacks a '// Package $pkg ...' comment" >&2
    fail=1
  fi
done

# ---- 1b. nested internal packages: package comment coverage ----
# Subpackages (internal/x/y) document themselves with a
# '// Package <pkg> ...' comment in some .go file; the doc.go file
# convention is only enforced at the top level. Fixture trees (testdata)
# are not packages.
for dir in internal/*/*/; do
  case "$dir" in *testdata*) continue ;; esac
  pkg=$(basename "$dir")
  ls "$dir"*.go >/dev/null 2>&1 || continue
  if ! grep -l "^// Package $pkg " "$dir"*.go >/dev/null 2>&1; then
    echo "docscheck: $dir has no '// Package $pkg ...' comment in any .go file" >&2
    fail=1
  fi
done

# ---- 2. per-command package comment coverage ----
for dir in cmd/*/; do
  cmd=$(basename "$dir")
  if ! grep -l "^// Command $cmd " "$dir"*.go >/dev/null 2>&1; then
    echo "docscheck: $dir has no '// Command $cmd ...' package comment" >&2
    fail=1
  fi
done

# ---- 3. markdown relative-link check ----
# Collect tracked-looking markdown: top level and docs/.
mdfiles=$(find . -maxdepth 1 -name '*.md'; find docs -name '*.md' 2>/dev/null)

for md in $mdfiles; do
  dir=$(dirname "$md")
  # Extract (target) parts of [text](target) links, one per line.
  links=$(grep -o '\[[^][]*\]([^()[:space:]]*)' "$md" | sed 's/.*(\(.*\))/\1/') || continue
  for link in $links; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "docscheck: $md links to missing file: $link" >&2
      fail=1
    fi
  done
done

# ---- 4. orphaned docs pages ----
# Every docs/*.md must be reachable: linked from some other markdown file.
for page in docs/*.md; do
  [ -e "$page" ] || continue
  name=$(basename "$page")
  linked=0
  for md in $mdfiles; do
    [ "$md" -ef "$page" ] && continue
    if grep -q "[(/]$name" "$md" 2>/dev/null; then
      linked=1
      break
    fi
  done
  if [ "$linked" -eq 0 ]; then
    echo "docscheck: $page is not linked from any other markdown file" >&2
    fail=1
  fi
done

# ---- 5. backticked source paths exist ----
# A path inside a code span names a file or directory: `internal/x`,
# `./cmd/y`, `internal/x/file.go:45`. A line suffix is dropped, and a
# pattern (`{a,b}`, `*`, `<pkg>`) is checked up to its first wildcard.
for md in README.md ARCHITECTURE.md docs/*.md .claude/skills/verify/SKILL.md; do
  [ -e "$md" ] || continue
  paths=$(grep -o '`[^`]*`' "$md" |
    grep -oE '(^`|[ (=])(\./)?(internal|cmd|scripts|examples)/[^ `:,;)]*' |
    sed -E 's/^[` (=]//; s/^\.\///; s/[{*<].*//; s/[./]+$//' | sort -u)
  for p in $paths; do
    if [ ! -e "$p" ]; then
      echo "docscheck: $md names missing path: $p" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docscheck: FAILED" >&2
  exit 1
fi
echo "docscheck: OK"
