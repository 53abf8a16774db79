package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/obsv"
	"repro/internal/preprocess"
)

var errLearner = errors.New("learner failed on purpose")

// failLearnAt installs a learn step that runs the real one until its
// failAt-th call (zero-based), which fails, and returns the function
// that puts the real one back.
func failLearnAt(failAt int32) func() {
	prev := learnPass
	var calls atomic.Int32
	learnPass = func(ml *meta.MetaLearner, pre *learner.Prepared, p learner.Params) (*meta.TrainReport, error) {
		if calls.Add(1)-1 == failAt {
			return nil, errLearner
		}
		return prev(ml, pre, p)
	}
	return func() { learnPass = prev }
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a few seconds.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, started with %d", what, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestRunLearnerErrorStopsPipeline fails one pass's learners on the
// learning side of the hand-off: Run returns that error, counts the
// failed pass, and leaves no goroutine behind.
func TestRunLearnerErrorStopsPipeline(t *testing.T) {
	events, start := pipeline(t, 101, 20)
	for _, failAt := range []int32{0, 2} {
		base := runtime.NumGoroutine()
		cfg := quickConfig()
		cfg.Metrics = NewTrainingMetrics(obsv.NewRegistry())
		restore := failLearnAt(failAt)
		_, err := Run(events, start, 20, cfg)
		restore()
		if !errors.Is(err, errLearner) {
			t.Fatalf("failing pass %d: err = %v, want the learner's", failAt, err)
		}
		if got := cfg.Metrics.errors.Value(); got != 1 {
			t.Errorf("failing pass %d: %d errors recorded, want 1", failAt, got)
		}
		if got := cfg.Metrics.passes.Value(); got != int64(failAt)+1 {
			t.Errorf("failing pass %d: %d passes recorded, want %d", failAt, got, failAt+1)
		}
		waitGoroutines(t, base, "a failed pass")
	}
}

// TestRunPanicStopsPipeline panics on the caller's side of the hand-off
// while the next pass is being learned: a recorder without instruments
// panics in its first Record. The panic reaches Run's caller, and the
// learning goroutine is gone by then.
func TestRunPanicStopsPipeline(t *testing.T) {
	events, start := pipeline(t, 101, 20)
	base := runtime.NumGoroutine()
	cfg := quickConfig()
	cfg.Metrics = &TrainingMetrics{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned without the recorder's panic")
			}
		}()
		_, _ = Run(events, start, 20, cfg)
	}()
	waitGoroutines(t, base, "a panic")
}

// TestRunPassOverlap checks the hand-off through the view step: when
// pass k's view starts, every pass before k-1 has been revised and
// recorded — the learning side runs at most one pass ahead.
func TestRunPassOverlap(t *testing.T) {
	events, start := pipeline(t, 101, 24)
	cfg := quickConfig()
	cfg.Metrics = NewTrainingMetrics(obsv.NewRegistry())
	var views int64 // touched only by the goroutine running the views
	restore := swapView(func(st *incr.State, events []preprocess.TaggedEvent, from, to int64, p learner.Params) (*learner.Prepared, *IncrInfo) {
		recorded := cfg.Metrics.passes.Value()
		if recorded > views || recorded < views-1 {
			t.Errorf("pass %d's view began with %d passes recorded", views, recorded)
		}
		views++
		return view(st, events, from, to, p)
	})
	res, err := Run(events, start, 24, cfg)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if views != int64(len(res.Retrainings)) || views < 3 {
		t.Errorf("%d views for %d passes", views, len(res.Retrainings))
	}
}

// BenchmarkRun times Run over an ANL-like stream at the scale of the
// paper-offline workload (112 weeks, duplicate volume 0.1), at the
// paper's defaults under both retraining policies.
func BenchmarkRun(b *testing.B) {
	sys := bgsim.ANL(3).Scaled(112, 0.1)
	g, err := bgsim.NewGenerator(sys)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for i := range raw.Events { // the text logs record whole seconds
		raw.Events[i].Time -= raw.Events[i].Time % 1000
	}
	filtered, _ := preprocess.Filter{Threshold: 300}.Apply(raw)
	events := preprocess.NewCategorizer(preprocess.NewCatalog()).Tag(filtered)
	for _, policy := range []Policy{Sliding, Whole} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := Defaults()
			cfg.Policy = policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(events, sys.Start, sys.Weeks, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
