GO ?= go

.PHONY: build test verify benchcmp bench-all

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Tier-1 (build + test) plus vet, the race detector and the kill -9 crash
# harness — the gate the concurrent streaming service is held to.
verify:
	sh scripts/verify.sh

# The repo benchmark (BENCHMARK.json, bench/run.sh) on a parent commit vs
# the working tree, in alternating pairs, then bench's --compare table.
# BASE=HEAD PAIRS=10 SEED=3 RUN_SECONDS=16 WORKLOADS="..." — see the script.
benchcmp:
	sh scripts/benchcmp.sh

# The full benchmark suite: every table/figure plus the ablations.
bench-all:
	$(GO) test -bench . -benchmem -run '^$$'
