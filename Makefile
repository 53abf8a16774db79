GO ?= go

.PHONY: build test verify bench benchcmp bench-all

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Tier-1 (build + test) plus vet and the race detector — the gate the
# concurrent streaming service is held to.
verify:
	sh scripts/verify.sh

# Component benchmarks of the training pipeline and the serving hot
# path (single-tenant and fleet-routed), snapshotted to BENCH_7.json,
# then the closed-loop capacity sweep (cmd/loadgen against a live
# durable cmd/serve, stepped offered rates from 8 connections plus a 2x
# overdrive step, auto-extended until the p99 target breaches, with a
# CPU profile of the peak step to results/cpu_capacity.pprof)
# snapshotted to BENCH_10.json, then the hot-standby phase (steady-state replication
# lag under load, kill -9 failover time to first accepted write on the
# promoted follower, and POST /backfill throughput against the raw
# disk-read ceiling) snapshotted to BENCH_9.json. See scripts/bench.sh;
# BENCHTIME=20x / RATES=... / STEP_DURATION=... / STANDBY_RATE=... for
# steadier numbers.
bench:
	sh scripts/bench.sh

# The repo benchmark (BENCHMARK.json, bench/run.sh) on a parent commit vs
# the working tree, in alternating pairs, then bench's --compare table.
# BASE=HEAD PAIRS=10 SEED=3 RUN_SECONDS=16 WORKLOADS="..." — see the script.
benchcmp:
	sh scripts/benchcmp.sh

# The full benchmark suite: every table/figure plus the ablations.
bench-all:
	$(GO) test -bench . -benchmem -run '^$$'
