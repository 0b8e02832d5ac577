#!/usr/bin/env bash
# Builds the Whisper benchmark from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload write --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache and the binary) stay inside the
# checkout, under $CARGO_TARGET_DIR when it is set and .bench_build
# otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/whisperbench" .)
exec "$out/whisperbench" "$@"
