package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/obsv"
	"repro/internal/preprocess"
)

// swapView installs v as the view step of TrainWindow and Run and
// returns the function that puts the real one back.
func swapView(v func(*incr.State, []preprocess.TaggedEvent, int64, int64, learner.Params) (*learner.Prepared, *IncrInfo)) func() {
	prev := trainView
	trainView = v
	return func() { trainView = prev }
}

// batchRun runs the engine with every pass trained by the learners' batch
// scans and revised by the reviser's full replay over a bare view of the
// window: the reference that TrainWindow's maintained statistics and
// carried replay must reproduce.
func batchRun(t *testing.T, events []preprocess.TaggedEvent, start int64, weeks int, cfg Config) *Result {
	t.Helper()
	defer swapView(func(_ *incr.State, events []preprocess.TaggedEvent, from, to int64, _ learner.Params) (*learner.Prepared, *IncrInfo) {
		return learner.Prepare(events[searchTime(events, from):searchTime(events, to)]), nil
	})()
	res, err := Run(events, start, weeks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunIncrementalEquivalence pins the headline contract of the one
// training path: Run, which maintains the learners' sufficient statistics
// and carries the reviser's replay across passes, produces exactly the
// same warnings, evaluation, and per-pass rule churn as batch passes over
// each window — the maintenance is an optimization, never a behavior
// change. It also checks the pass records: the first pass is the sole
// full rebuild, every later pass a delta-apply.
func TestRunIncrementalEquivalence(t *testing.T) {
	events, start := pipeline(t, 109, 20)
	for _, policy := range []Policy{Sliding, Whole} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := quickConfig()
			cfg.Policy = policy
			full := batchRun(t, events, start, 20, cfg)
			inc, err := Run(events, start, 20, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(full.Warnings, inc.Warnings) {
				t.Fatalf("warnings diverge: %d batch vs %d incremental",
					len(full.Warnings), len(inc.Warnings))
			}
			if !reflect.DeepEqual(full.Overall, inc.Overall) {
				t.Fatalf("overall outcome diverges: %+v vs %+v", full.Overall, inc.Overall)
			}
			if !reflect.DeepEqual(full.Weekly, inc.Weekly) {
				t.Fatal("weekly series diverge")
			}
			if len(full.Retrainings) != len(inc.Retrainings) {
				t.Fatalf("pass counts differ: %d vs %d",
					len(full.Retrainings), len(inc.Retrainings))
			}
			for i := range full.Retrainings {
				f, n := full.Retrainings[i], inc.Retrainings[i]
				if f.Week != n.Week || f.TrainEvents != n.TrainEvents ||
					f.RepoSize != n.RepoSize || f.Churn != n.Churn {
					t.Errorf("pass %d records diverge: %+v vs %+v", i, f, n)
				}
				if f.Incr != nil {
					t.Errorf("pass %d: batch run carries IncrInfo", i)
				}
				if n.Incr == nil {
					t.Fatalf("pass %d: incremental run missing IncrInfo", i)
				}
				if i == 0 && !n.Incr.Rebuild {
					t.Error("first pass must be a full rebuild")
				}
				if i > 0 && n.Incr.Rebuild {
					t.Errorf("pass %d fell back to a rebuild: %s", i, n.Incr.Reason)
				}
			}
		})
	}
}

// TestIncrementalMetricsRecorded runs the engine with a metrics recorder
// attached and checks the train_incr_* instruments and the per-mode pass
// histogram against the returned pass records, through a strict
// text-exposition round trip.
func TestIncrementalMetricsRecorded(t *testing.T) {
	events, start := pipeline(t, 110, 20)
	cfg := quickConfig()
	reg := obsv.NewRegistry()
	cfg.Metrics = NewTrainingMetrics(reg)
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}

	var applied, expired, rebuilds, deltas float64
	for _, rt := range res.Retrainings {
		if rt.Incr == nil {
			t.Fatal("incremental run missing IncrInfo")
		}
		applied += float64(rt.Incr.Applied)
		expired += float64(rt.Incr.Expired)
		if rt.Incr.Rebuild {
			rebuilds++
		} else {
			deltas++
		}
	}
	passes := float64(len(res.Retrainings))
	if passes < 2 {
		t.Fatalf("too few passes to exercise the delta path: %v", passes)
	}
	if applied == 0 {
		t.Fatal("no events applied — the window never moved")
	}
	for key, want := range map[string]float64{
		"train_incr_applied_events_total":                         applied,
		"train_incr_expired_events_total":                         expired,
		"train_incr_rebuilds_total":                               rebuilds,
		"train_incr_advance_duration_seconds_count":               passes,
		"train_pass_duration_seconds_count{mode=\"incremental\"}": deltas,
		"train_pass_duration_seconds_count{mode=\"full\"}":        rebuilds,
	} {
		if got := samples[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	// A pass without maintained statistics (a record restored from an
	// older snapshot) is labelled "full" and never touches the incr
	// counters.
	breg := obsv.NewRegistry()
	bcfg := quickConfig()
	bcfg.Metrics = NewTrainingMetrics(breg)
	bres := batchRun(t, events, start, 20, bcfg)
	buf.Reset()
	if err := breg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	bsamples, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if got := bsamples["train_incr_applied_events_total"]; got != 0 {
		t.Errorf("batch run applied incr events: %v", got)
	}
	key := fmt.Sprintf("train_pass_duration_seconds_count{mode=%q}", "full")
	if got := bsamples[key]; got != float64(len(bres.Retrainings)) {
		t.Errorf("%s = %v, want %v", key, got, len(bres.Retrainings))
	}
}
