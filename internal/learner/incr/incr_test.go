package incr_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/preprocess"
)

// genStream produces a time-sorted tagged stream with duplicate
// timestamps (gap 0 is possible) and a distinct fatal class range, so
// assoc targets are exercised.
func genStream(rng *rand.Rand, n, classes int, pFatal float64) []preprocess.TaggedEvent {
	events := make([]preprocess.TaggedEvent, n)
	t := int64(0)
	for i := range events {
		t += int64(rng.Intn(20_000))
		events[i].Time = t
		if rng.Float64() < pFatal {
			events[i].Fatal = true
			events[i].Class = classes + rng.Intn(4)
		} else {
			events[i].Class = rng.Intn(classes)
		}
	}
	return events
}

// mkMeta builds an ensemble with thresholds loosened so every learner
// actually emits rules on small random streams — silent empty outputs
// would make the equivalence check vacuous.
func mkMeta() *meta.MetaLearner {
	ml := meta.New()
	// Random streams are much denser than real logs; a higher support
	// floor keeps the Apriori candidate set (and the reviser's replay
	// cost) small without losing path coverage.
	ml.Assoc.MinSupport = 0.05
	ml.Stat.MinOccurrences = 2
	ml.Stat.Threshold = 0.2
	// Random fatal gaps sit in the minutes range; lower the long-term
	// floor so the distribution fit actually runs (and thus actually
	// compares the incrementally-maintained gap vector).
	ml.Prob.FloorSec = 30
	return ml
}

func searchTime(stream []preprocess.TaggedEvent, t int64) int {
	return sort.Search(len(stream), func(i int) bool { return stream[i].Time >= t })
}

// learnRevise trains over a view whose counts come from incremental
// state, the way engine.TrainWindow does: Learn, then Revise.
func learnRevise(ml *meta.MetaLearner, tr *learner.Prepared, p learner.Params) (*meta.TrainReport, error) {
	report, err := ml.Learn(tr, p)
	if err != nil {
		return nil, err
	}
	ml.Revise(report, tr, p)
	return report, nil
}

// trainStep advances the incremental state to [from, to) and pins its
// training output — per-learner candidates, merged candidates, revised
// rules — against a from-scratch batch pass over the same window.
func trainStep(t *testing.T, ml *meta.MetaLearner, st *incr.State, stream []preprocess.TaggedEvent, from, to int64, p learner.Params) incr.Delta {
	t.Helper()
	d := st.Advance(stream, from, to, p)
	window := stream[searchTime(stream, from):searchTime(stream, to)]

	repB, errB := learnRevise(ml, learner.Prepare(window), p)

	preI := learner.Prepare(window)
	st.Install(preI)
	repI, errI := learnRevise(ml, preI, p)

	if (errB == nil) != (errI == nil) {
		t.Fatalf("window [%d,%d): batch err %v vs incremental err %v", from, to, errB, errI)
	}
	if errB != nil {
		return d
	}
	for name, rules := range repB.CandidatesByLearner {
		if !reflect.DeepEqual(rules, repI.CandidatesByLearner[name]) {
			t.Fatalf("window [%d,%d): %s learner diverges: batch %d rules vs incremental %d",
				from, to, name, len(rules), len(repI.CandidatesByLearner[name]))
		}
	}
	if !reflect.DeepEqual(repB.Candidates, repI.Candidates) {
		t.Fatalf("window [%d,%d): merged candidates diverge", from, to)
	}
	if !reflect.DeepEqual(repB.Kept, repI.Kept) {
		t.Fatalf("window [%d,%d): revised rule sets diverge", from, to)
	}
	return d
}

// TestIncrementalEquivalence is the oracle property test: random
// streams, random window slides (including end-only growth, slide-by-
// little, and clean jumps past the old window), incremental training
// byte-equivalent to the batch rebuild at every step. Sized by the
// quick/slow tuning constants; scripts/verify.sh runs it under -race.
func TestIncrementalEquivalence(t *testing.T) {
	for seed := 0; seed < eqSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 1))
			ml := mkMeta()
			p := learner.Params{WindowSec: 120}
			stream := genStream(rng, eqEvents, 40, 0.12)
			st := incr.New(meta.IncrConfig(ml, p))

			span := stream[len(stream)-1].Time
			winLen := span / 4
			from, to := int64(0), winLen
			for step := 0; step < eqSteps; step++ {
				d := trainStep(t, ml, st, stream, from, to, p)
				if step == 0 {
					if !d.Rebuild {
						t.Fatal("first advance must report a full build")
					}
					if !st.CanServeItemsets(p.Window(), ml.Assoc.MaxItems, ml.Assoc.EffectiveMaxBody()) {
						t.Fatal("state cannot serve the ensemble it was configured from")
					}
					if !st.CanServeRuns(p.Window(), ml.Stat.EffectiveMaxK()) {
						t.Fatal("state cannot serve the statistical learner")
					}
				} else if d.Rebuild {
					t.Fatalf("step %d: unexpected full rebuild (%s)", step, d.Reason)
				}

				prevTo := to
				switch rng.Intn(10) {
				case 0: // window end grows, start stays
					to += int64(rng.Intn(int(winLen / 4)))
				case 1: // clean jump past the old window (full turnover)
					from = to + int64(rng.Intn(int(winLen/2)))
					to = from + winLen
				default: // ordinary slide
					from += int64(1 + rng.Intn(int(winLen/6)))
					to = from + winLen + int64(rng.Intn(int(winLen/8)))
				}
				if to < prevTo {
					to = prevTo
				}
				if to > span+1 {
					to = span + 1
				}
				if from > to {
					from = to
				}
			}
		})
	}
}

// TestExportRestore pins the snapshot path: a restored state resumes
// with a delta-apply (not a cold rebuild) and stays byte-equivalent.
func TestExportRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ml := mkMeta()
	p := learner.Params{WindowSec: 120}
	stream := genStream(rng, 3000, 40, 0.12)
	cfg := meta.IncrConfig(ml, p)
	st := incr.New(cfg)

	span := stream[len(stream)-1].Time
	winLen := span / 4
	slide := winLen / 10
	from, to := int64(0), winLen
	for i := 0; i < 3; i++ {
		trainStep(t, ml, st, stream, from, to, p)
		from, to = from+slide, to+slide
	}

	blob, err := st.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(blob) == 0 {
		t.Fatal("export of a valid window returned nothing")
	}
	restored := incr.New(cfg)
	if err := restored.Restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}

	d := restored.Advance(stream, from, to, p)
	if d.Rebuild {
		t.Fatalf("restored state cold-rebuilt (%s) instead of delta-applying", d.Reason)
	}
	// Both the original and the restored state must keep matching batch.
	trainStep(t, ml, st, stream, from, to, p)
	window := stream[searchTime(stream, from):searchTime(stream, to)]
	repB, errB := learnRevise(ml, learner.Prepare(window), p)
	preR := learner.Prepare(window)
	restored.Install(preR)
	repR, errR := learnRevise(ml, preR, p)
	if errB != nil || errR != nil {
		t.Fatalf("train: batch err %v, restored err %v", errB, errR)
	}
	if !reflect.DeepEqual(repB.Kept, repR.Kept) {
		t.Fatal("restored state diverges from batch after one slide")
	}
}

// TestExportNotReady: a fresh state has nothing to persist.
func TestExportNotReady(t *testing.T) {
	st := incr.New(incr.Config{WindowMs: 1000, MaxItems: 30})
	blob, err := st.Export()
	if err != nil || blob != nil {
		t.Fatalf("fresh export = (%v, %v), want (nil, nil)", blob, err)
	}
}

// TestRestoreMismatch: persisted state under a different configuration
// must be refused, leaving the state to rebuild on its next advance.
func TestRestoreMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ml := mkMeta()
	p := learner.Params{WindowSec: 120}
	stream := genStream(rng, 1500, 40, 0.12)
	cfg := meta.IncrConfig(ml, p)
	st := incr.New(cfg)
	span := stream[len(stream)-1].Time
	st.Advance(stream, 0, span/2, p)
	blob, err := st.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	other := cfg
	other.MaxK = cfg.MaxK + 3
	mismatched := incr.New(other)
	if err := mismatched.Restore(blob); err == nil {
		t.Fatal("restore accepted state persisted under a different config")
	}
	if d := mismatched.Advance(stream, 0, span/2, p); !d.Rebuild {
		t.Fatal("state after refused restore must rebuild")
	}

	if err := incr.New(cfg).Restore([]byte("{")); err == nil {
		t.Fatal("restore accepted a truncated blob")
	}
}

// TestFallbackTriggers: parameter changes and backwards windows degrade
// to full rebuilds with the reason recorded — and stay correct.
func TestFallbackTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ml := mkMeta()
	p := learner.Params{WindowSec: 120}
	stream := genStream(rng, 2000, 40, 0.12)
	st := incr.New(meta.IncrConfig(ml, p))
	span := stream[len(stream)-1].Time
	winLen := span / 3

	trainStep(t, ml, st, stream, 0, winLen, p)

	// A caller changed W_P: rebuild under the new window, then serve it.
	p2 := learner.Params{WindowSec: 60}
	if d := st.Advance(stream, winLen/10, winLen+winLen/10, p2); !d.Rebuild {
		t.Fatal("window parameter change must force a rebuild")
	}
	if st.CanServeRuns(p.Window(), 8) {
		t.Fatal("state still claims to serve the old window")
	}
	trainStep(t, ml, st, stream, winLen/5, winLen+winLen/5, p2)

	// Backwards slide (whole-history retrain after a sliding one).
	if d := st.Advance(stream, 0, winLen, p2); !d.Rebuild {
		t.Fatal("backwards window start must force a rebuild")
	}
	trainStep(t, ml, st, stream, winLen/10, winLen, p2)
}

// TestDriftAudit: a caller breaking the stream contract (the window
// slice disagreeing with what was fed before) is caught by the periodic
// audit and answered with a rebuild from the new truth.
func TestDriftAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ml := mkMeta()
	p := learner.Params{WindowSec: 120}
	stream := genStream(rng, 2000, 40, 0.12)
	cfg := meta.IncrConfig(ml, p)
	cfg.VerifyEvery = 1 // audit every advance
	st := incr.New(cfg)
	span := stream[len(stream)-1].Time
	winLen := span / 3

	st.Advance(stream, 0, winLen, p)

	// Rewrite history: flip one in-window fatal.
	mutated := append([]preprocess.TaggedEvent(nil), stream...)
	for i := range mutated {
		if mutated[i].Fatal && mutated[i].Time >= winLen/10 {
			mutated[i].Fatal = false
			mutated[i].Class = 3
			break
		}
	}
	d := st.Advance(mutated, winLen/10, winLen+winLen/10, p)
	if !d.Rebuild || d.Reason != "drift audit mismatch" {
		t.Fatalf("drift not detected: %+v", d)
	}
	// After the rebuild the state serves the mutated truth.
	trainStep(t, ml, st, mutated, winLen/5, winLen+winLen/5, p)
}

// TestDeltaAccounting pins Applied/Expired against slice arithmetic.
func TestDeltaAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ml := mkMeta()
	p := learner.Params{WindowSec: 120}
	stream := genStream(rng, 2000, 40, 0.12)
	st := incr.New(meta.IncrConfig(ml, p))
	span := stream[len(stream)-1].Time
	winLen := span / 3
	slide := winLen / 7

	if d := st.Advance(stream, 0, winLen, p); d.Applied != searchTime(stream, winLen) {
		t.Fatalf("first build applied %d, want %d", d.Applied, searchTime(stream, winLen))
	}
	d := st.Advance(stream, slide, winLen+slide, p)
	wantApplied := searchTime(stream, winLen+slide) - searchTime(stream, winLen)
	wantExpired := searchTime(stream, slide)
	if d.Applied != wantApplied || d.Expired != wantExpired || d.Rebuild {
		t.Fatalf("slide delta %+v, want applied=%d expired=%d", d, wantApplied, wantExpired)
	}
}
