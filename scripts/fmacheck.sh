#!/usr/bin/env bash
# Fused multiply-add gate, run by `make ci`: the product's bytes must not
# depend on GOARCH. Go lets a compiler fuse x*y + z into one instruction
# that skips the product's rounding (amd64's never does; arm64's, ppc64le's,
# s390x's and riscv64's do, across statements and through inlined calls),
# and an explicit conversion, float64(x*y) + z, forbids it. This
# cross-compiles the product packages for each of those architectures with
# -gcflags=-S and fails, printing the instructions and their source lines,
# on any fused multiply-add or multiply-subtract. The assembly listing is
# the ground truth: no reading of the source can see what inlining fuses.
#
# Mnemonics as Go's assembler spells them:
#   arm64    FMADDD FMADDS FMSUBD FMSUBS FNMADDD FNMADDS FNMSUBD FNMSUBS
#   ppc64le  FMADD FMADDS FMSUB FMSUBS FNMADD FNMADDS FNMSUB FNMSUBS
#   s390x    FMADD FMADDS FMSUB FMSUBS
#   riscv64  FMADDD FMADDS FMSUBD FMSUBS FNMADDD FNMADDS FNMSUBD FNMSUBS
#
# Usage: fmacheck.sh [packages...]   (default ./internal/... ./cmd/...;
#                                     paths resolve from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
pkgs=("$@")
if [ ${#pkgs[@]} -eq 0 ]; then
	pkgs=(./internal/... ./cmd/...)
fi

fused='[[:space:]]F(N)?M(ADD|SUB)[DS]?[[:space:]]'
status=0
for arch in arm64 ppc64le s390x riscv64; do
	# -S writes the listing to stderr; a cached package replays it.
	if ! listing=$(GOOS=linux GOARCH=$arch go build -gcflags=-S "${pkgs[@]}" 2>&1); then
		echo "fmacheck: GOARCH=$arch build failed:" >&2
		echo "$listing" >&2
		exit 1
	fi
	hits=$(grep -E "$fused" <<<"$listing" || true)
	if [ -n "$hits" ]; then
		echo "fmacheck: GOARCH=$arch fuses $(wc -l <<<"$hits") multiply-add(s); round the product, float64(x*y) + z:" >&2
		echo "$hits" >&2
		status=1
	else
		echo "fmacheck: GOARCH=$arch: no fused multiply-add"
	fi
done
exit $status
