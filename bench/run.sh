#!/usr/bin/env bash
# The repo benchmark's single command (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
#   bash bench/run.sh --compare A.json [B.json]
#
# Builds the harness and a fresh cmd/serve from source into .bench_build/
# (nothing is read or written outside the checkout: the Go build cache,
# GOPATH and HOME all point inside it), then runs the harness from the
# repo root. The harness is its own module (bench/go.mod) so the repo's
# tier-1 `go build ./... && go test ./...` never compiles it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"

t0=$(date +%s.%N)
(
  cd "$here"
  env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
    GOCACHE="$build/gocache" GOPATH="$build/gopath" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0 \
    go build -o "$build/bin/" . repro/cmd/serve
)
t1=$(date +%s.%N)

cd "$root"
BENCH_BUILD_S=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.6f", b-a}') \
  exec "$build/bin/bench" -serve "$build/bin/serve" -dir "$build/run" "$@"
