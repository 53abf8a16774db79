#!/bin/sh
# Full verification gate: tier-1 (build + tests) plus vet and the race
# detector. The race pass is what the concurrent streaming service
# (internal/stream, cmd/serve) is held to.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# run_selected [-count=N] [-tags=T] PATTERN PKG... runs go test -race
# -count=N (default 1) [-tags=T] -run PATTERN, after checking that PATTERN
# selects at least one test in every package under the same tags: a
# pattern that matches nothing would pass silently.
run_selected() {
    count=-count=1
    tags=
    while :; do
        case $1 in
        -count=*) count=$1; shift ;;
        -tags=*) tags=$1; shift ;;
        *) break ;;
        esac
    done
    pattern=$1
    shift
    for pkg in "$@"; do
        if ! go test $tags -list "$pattern" "$pkg" | grep -q '^Test'; then
            echo "FAIL: -run '$pattern' selects no test in $pkg"
            exit 1
        fi
    done
    go test -race $tags "$count" -run "$pattern" "$@"
}

echo "== gofmt -l"
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "FAIL: not gofmt-formatted:"
    echo "$unformatted"
    exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== bench module: go vet + go build"
# The benchmark harness is its own module compiled against this one; its
# binaries go to a temporary directory, never into bench/.
(cd bench && go vet ./... && go build -o "$tmpdir" ./...)
echo "== go test ./..."
go test ./...
echo "== allocation budgets (-count=1)"
# The zero-allocation serving guarantees, re-measured every run: parse
# (and ScanLog's decode-ahead: chunk slices recycled, nothing per line),
# filter stages, predictor observe, the whole stream pipeline, the batch
# HTTP handler (pooled request scratch: a constant per request, nothing
# per event), the fleet-routed path (multi-tenancy must add no per-event
# cost), and WAL replay's decode (strings seen before come from the
# process vocabulary).
go test -count=1 -run 'AllocBudget' \
    ./internal/raslog ./internal/preprocess ./internal/predictor ./internal/stream ./internal/fleet \
    ./internal/persist
echo "== vocabulary gate (-race -count=5)"
# One process vocabulary names every Location and Entry with a dense Sym,
# and every event source stamps the Syms on its events as hints. The pins
# repeat under the race detector: goroutines interning overlapping
# vocabularies get one Sym per string (the reverse table is read without
# a lock), the filter stages and the categorizer decide the same for
# zero, foreign and stale hints as for freshly decoded events, and no
# daemon path (HTTP, backfill, follower, recovery) falls back to a lookup.
run_selected -count=5 'TestVocabularyConcurrentIntern|TestHintsNeverChangeLoc|TestEventSize' ./internal/raslog
run_selected -count=5 'TestHintsNeverChangeResults' ./internal/preprocess
run_selected -count=5 'TestDaemonPathsStampEvents' ./internal/stream
echo "== decode-ahead gate (-race -count=20)"
# raslog.ScanLog decodes on its own goroutine. Its contract tests and fuzz
# seeds (the serial Scanner's events and errors across chunk boundaries,
# exact early stop, no decoder outliving the call) repeat under the race
# detector, because the hand-off interleaves differently on every run.
run_selected -count=20 'ScanLog' ./internal/raslog
echo "== ingest hot path stays allocation-free (BenchmarkIngestBatch)"
# The batch ingest path must stay at 0 allocs/event with the commit
# ticket threaded through it — the ticket, ack channel, and commit round
# are per batch, amortized to nothing per event. awk fails the gate if
# the benchmark reports any per-event allocation.
go test -run '^$' -bench 'BenchmarkIngestBatch$' -benchtime 20000x -benchmem . |
    awk '/^BenchmarkIngestBatch/ { print; seen = 1; if ($(NF-1) != "0") bad = 1 }
         END { if (!seen) { print "FAIL: BenchmarkIngestBatch did not run"; exit 1 }
               if (bad) { print "FAIL: BenchmarkIngestBatch allocates per event"; exit 1 } }'
echo "== group-commit gate (-race -count=1)"
# The asynchronous commit pipeline re-proven fresh every run: ticket
# resolution and coalescing (one fsync covers many tickets), abandon and
# close semantics, the fleet-shared sync executor, rotation under
# pending tickets, batch ≡ sequential ingest equivalence, the
# crash-mid-coalesce pins (no acked batch lost, no false acks), and a
# 200 from either ingest route surviving a crash right after it.
go test -race -count=1 \
    -run 'Ticket|Coalesce|SharedSyncExecutor|RotationPreserves|IngestBatch|DurableBatch|AckImpliesDurable' \
    ./internal/persist ./internal/stream
echo "== training-path equivalence gate (-race -count=1)"
# engine.TrainWindow ≡ the learners' batch passes, re-proven fresh on
# every run: the sufficient-statistics maintainer (random streams ×
# random slides, the export/restore round trip, fallback and drift-audit
# paths), the event-set cache delta exactness, the reviser's carried
# replay against its full replay (random streams × sliding and whole
# schedules × three W_P, with restore, backwards-slide, W_P-change and
# audit fallbacks), the engine and stream end-to-end runs against their
# batch references, the training view that the history's trims leave
# intact, and the prediction golden — all under the race detector, never
# from the test cache. Build with -tags slow for the long campaign.
go test -race -count=1 ./internal/learner ./internal/learner/incr
run_selected 'TestCarryMatchesFreshScoring|TestScoreAllMatchesPerRuleReplay' \
    ./internal/reviser
run_selected 'TestRunIncrementalEquivalence|TestIncrementalMetricsRecorded|TestPredictionGolden' \
    ./internal/engine
# engine.Run learns pass k+1 on its own goroutine while the caller
# revises pass k. The hand-off pins (a failed or panicking pass leaves no
# goroutine, the learning side is at most one pass ahead) repeat, because
# the hand-off interleaves differently on every run.
run_selected -count=10 'TestRunLearnerErrorStopsPipeline|TestRunPanicStopsPipeline|TestRunPassOverlap' \
    ./internal/engine
run_selected 'TestStreamIncrementalEquivalence|TestSnapshotCopiesOnlyItsWindow|TestTrainingViewSurvivesTrims|TestRecoveryRestoresIncrementalState|TestRecoveryWithoutIncrState' \
    ./internal/stream
echo "== kill-and-recover counters (-race -count=10)"
# Repeated because its snapshot cut depends on goroutine timing: the test
# must hold on any machine speed, not only on the one it was written on.
go test -race -count=10 -run '^TestKillRecoverCountersExact$' ./internal/stream
echo "== install hand-off gate (-race -count=10)"
# A finished training pass goes live on the pipeline goroutine at a
# position the WAL records as an install mark (DESIGN.md §9), with
# training in the background as the daemon runs it. The hand-off pins
# repeat under the race detector, because it interleaves differently on
# every run: the one-state-machine oracle with a stalled live trainer
# (replay and follower install at its marks), a snapshot cut while a
# pass is in flight, TrainNow racing Close, recovery from an install's
# cut, a leader restarted with a pass in flight behind a follower, a
# replica restarted with one, the core's purity (no goroutine, channel,
# lock, clock or os in core.go; DESIGN.md §16) and a bare core driven
# from a slice of a live run's WAL. The persist side of the mark runs once: a
# mark on a rotation boundary, a new segment restating the marks at its
# start, Replay skipping marks, Copy -> DecodeFrames keeping them in
# place, the decoder's fuzz seeds, and replay from past retained
# segments.
run_selected -count=10 'TestOneStateMachineOracle|TestSnapshotCutNeverCapturesAPassInFlight|TestTrainNowRacingCloseReturns|TestRecoveryFromAnInstallCut|TestFollowerReadsMarksThatEndASegment|TestStandbyRestartWithPassInFlight|TestCoreIsPure|TestCoreFromASlice' \
    ./internal/stream
run_selected 'InstallMark|RestatesMarks|FuzzDecodeFrames|ReplayFromPastRetainedSegments' ./internal/persist
echo "== overload-path gate (-race -count=1)"
# The saturation pins re-proven fresh every run: bounded-time 429s with
# no admitted event dropped or reordered (stream), warnings served off
# the hot path, the storming tenant held to its slot cap (fleet), and
# the stalled-header reaper (serve).
go test -race -count=1 \
    -run 'Saturation|Warnings(NotUnder|Reader)|StormingTenant|StalledHeader' \
    ./internal/stream ./internal/fleet ./cmd/serve
echo "== standby/failover gate (-race -count=1)"
# The hot-standby pins re-proven fresh every run: follower catch-up and
# promotion byte-equivalence against the single-node oracle, replica
# crash/resume, auto-promotion, the leader position a pull reports
# (TestFollowerPromotionEquivalence), no promotion on a WAL gap (the
# split-brain pin, TestFollowerNeverPromotesOnAWALGap, the gap arriving
# as 410 on GET /wal), the WAL serving edge cases of Store.Copy (live
# tail reads, rotation boundaries with budget resume, prune vs follower
# acks and in-flight pulls, ErrWALGap), Copy shipping from every
# sequence what ReplayMarks delivers (TestCopyMatchesReplayMarks), the
# backfill path (ordering, garbage tolerance, cancellation, singleton,
# the overlong-line bound), the shared Retry-After parser, and the
# monotonic idle clock the failover sweep flushed out.
go test -race -count=1 \
    -run 'Follower|NeverPromotesOnAWALGap|Promotion|Backfill|Segment|Copy|Prune|TornTransfer|RetryAfter|MonotonicClock' \
    ./internal/stream ./internal/persist ./internal/httpx ./internal/fleet
echo "== backfill hand-off gate (-race -count=10)"
# Backfill decodes on its own goroutine and hands chunks to the caller's
# submit loop; its tests (ordering across chunk seams, cancellation while
# the decoder is parked in Read, the overlong-line error) repeat under the
# race detector, because the hand-off interleaves differently on every
# run.
run_selected -count=10 'Backfill' ./internal/stream
echo "== go test -race -count=1 ./internal/stream ./internal/predictor ./internal/obsv ./internal/persist ./internal/fleet"
# -count=1 defeats the test cache: the concurrency-critical packages
# (pipeline, predictor swap, metrics registry, durable state, tenant
# lifecycle) re-run under the race detector every time, even when
# nothing changed.
go test -race -count=1 ./internal/stream ./internal/predictor ./internal/obsv ./internal/persist ./internal/fleet
echo "== go test -race ./..."
go test -race ./...
echo "== crash harness (-tags crash, -race -count=3)"
# The real cmd/serve binary under kill -9, on ephemeral ports: resume
# after a crash, incremental state restored, no acked batch lost to a
# mid-sweep kill at 1 and 8 connections on /ingest/batch and at 1 on
# /ingest, a two-tenant fleet, and standby failover
# (cmd/serve/crash_test.go).
go vet -tags crash ./cmd/serve
run_selected -count=3 -tags=crash '^TestCrash' ./cmd/serve
echo "verify: OK"
