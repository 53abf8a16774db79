package engine

import (
	"reflect"
	"testing"
)

// stripDurations clears the wall-clock fields of a retraining record so
// equivalence checks compare only deterministic outputs.
func stripDurations(rts []Retraining) []Retraining {
	out := append([]Retraining(nil), rts...)
	for i := range out {
		out[i].LearnerDurations = nil
		out[i].ReviseDuration = 0
		out[i].Total = 0
		out[i].Incr = nil // only the maintained-statistics side has one
	}
	return out
}

// TestRunParallelAndCacheMatchSerial pins the engine tentpole: the
// default configuration (parallel training, sufficient statistics and
// event sets carried across retrainings) reproduces the fully serial
// batch run byte for byte — warnings, fatals, weekly curves, overall
// outcome, and every retraining record.
func TestRunParallelAndCacheMatchSerial(t *testing.T) {
	for _, seed := range []uint64{101, 707} {
		events, start := pipeline(t, seed, 20)
		for _, policy := range []Policy{Sliding, Whole} {
			base := quickConfig()
			base.Policy = policy

			serial := base
			serial.Parallelism = 1
			want := batchRun(t, events, start, 20, serial)

			fast := base // Parallelism 0 (= GOMAXPROCS), maintained statistics
			got, err := Run(events, start, 20, fast)
			if err != nil {
				t.Fatalf("seed %d %v: parallel: %v", seed, policy, err)
			}

			if !reflect.DeepEqual(got.Warnings, want.Warnings) {
				t.Errorf("seed %d %v: warnings diverged (%d vs %d)",
					seed, policy, len(got.Warnings), len(want.Warnings))
			}
			if !reflect.DeepEqual(got.FatalTimes, want.FatalTimes) {
				t.Errorf("seed %d %v: fatal times diverged", seed, policy)
			}
			if !reflect.DeepEqual(got.Weekly, want.Weekly) {
				t.Errorf("seed %d %v: weekly series diverged", seed, policy)
			}
			if got.Overall != want.Overall {
				t.Errorf("seed %d %v: overall %+v vs %+v",
					seed, policy, got.Overall, want.Overall)
			}
			if !reflect.DeepEqual(stripDurations(got.Retrainings), stripDurations(want.Retrainings)) {
				t.Errorf("seed %d %v: retraining records diverged", seed, policy)
			}
			if len(want.Warnings) == 0 || len(want.Retrainings) < 2 {
				t.Errorf("seed %d %v: degenerate comparison (warnings=%d retrains=%d)",
					seed, policy, len(want.Warnings), len(want.Retrainings))
			}
		}
	}
}
