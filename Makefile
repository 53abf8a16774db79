GO ?= go

.PHONY: build test verify benchcmp bench-all loc

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

# Non-test Go lines (wc -l) outside bench/, per package directory and in
# total: the size a simplicity change reports before and after.
loc:
	@find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
