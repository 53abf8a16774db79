package engine

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/meta"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

func mkEvent(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
	return preprocess.TaggedEvent{
		Event: raslog.Event{Time: tSec * 1000}, Class: class, Fatal: fatal,
	}
}

// farPrecursorStream builds a stream whose precursors arrive ~20 minutes
// before failures: only wide windows can predict it.
func farPrecursorStream(weeks int) []preprocess.TaggedEvent {
	var events []preprocess.TaggedEvent
	weekSec := int64(raslog.MillisPerWeek / 1000)
	for w := int64(0); w < int64(weeks); w++ {
		base := w * weekSec
		for i := int64(0); i < 20; i++ {
			t := base + i*30_000
			events = append(events,
				mkEvent(t, 1, false), mkEvent(t+30, 2, false),
				mkEvent(t+1200, 99, true)) // 20 min after the signature
		}
	}
	return events
}

func TestTunerPrefersWideWindowOnFarPrecursors(t *testing.T) {
	events := farPrecursorStream(12)
	wt := NewWindowTuner()
	wt.Candidates = []int64{300, 1800}
	chosen, scores, err := wt.Choose(events, meta.New())
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 1800 {
		t.Fatalf("chose %d, want 1800 (scores %+v)", chosen, scores)
	}
	var marked int
	for _, s := range scores {
		if s.Chosen {
			marked++
			if s.WindowSec != chosen {
				t.Error("Chosen flag on wrong candidate")
			}
		}
	}
	if marked != 1 {
		t.Errorf("chosen flags = %d", marked)
	}
}

// nearPrecursorStream: signatures complete within 2 minutes of failures,
// so the small window already performs and must win (it is cheaper).
func nearPrecursorStream(weeks int) []preprocess.TaggedEvent {
	var events []preprocess.TaggedEvent
	weekSec := int64(raslog.MillisPerWeek / 1000)
	for w := int64(0); w < int64(weeks); w++ {
		base := w * weekSec
		for i := int64(0); i < 20; i++ {
			t := base + i*30_000
			events = append(events,
				mkEvent(t, 1, false), mkEvent(t+30, 2, false),
				mkEvent(t+120, 99, true))
		}
	}
	return events
}

func TestTunerPrefersSmallWindowWhenSufficient(t *testing.T) {
	events := nearPrecursorStream(12)
	wt := NewWindowTuner()
	wt.Candidates = []int64{300, 1800, 7200}
	chosen, _, err := wt.Choose(events, meta.New())
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 300 {
		t.Fatalf("chose %d, want the cheap 300 s window", chosen)
	}
}

func TestTunerDegenerateInputs(t *testing.T) {
	wt := NewWindowTuner()
	if _, _, err := (&WindowTuner{}).Choose(nil, meta.New()); err == nil {
		t.Error("empty candidate list accepted")
	}
	chosen, scores, err := wt.Choose(nil, meta.New())
	if err != nil || chosen != wt.Candidates[0] || scores != nil {
		t.Errorf("empty stream: %d %v %v", chosen, scores, err)
	}
	// A stream shorter than the validation tail falls back too.
	short := []preprocess.TaggedEvent{mkEvent(0, 1, false), mkEvent(10, 99, true)}
	chosen, _, err = wt.Choose(short, meta.New())
	if err != nil || chosen != wt.Candidates[0] {
		t.Errorf("short stream: %d %v", chosen, err)
	}
}

func TestTunerCustomObjective(t *testing.T) {
	// A recall-only objective must pick the widest window on far
	// precursors regardless of precision.
	events := farPrecursorStream(12)
	wt := NewWindowTuner()
	wt.Candidates = []int64{300, 7200}
	wt.Tolerance = 0
	wt.Objective = func(o eval.Outcome) float64 { return o.Recall() }
	chosen, _, err := wt.Choose(events, meta.New())
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 7200 {
		t.Fatalf("recall objective chose %d", chosen)
	}
}

func TestRunWithTuner(t *testing.T) {
	events, start := pipeline(t, 301, 20)
	cfg := quickConfig()
	cfg.Tuner = NewWindowTuner()
	cfg.Tuner.Candidates = []int64{300, 1800}
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Retrainings {
		if rt.WindowSec != 300 && rt.WindowSec != 1800 {
			t.Errorf("retraining window %d not among candidates", rt.WindowSec)
		}
	}
	if len(res.Warnings) == 0 {
		t.Error("tuned run produced no warnings")
	}
}

func TestRetrainingRecordsWindow(t *testing.T) {
	events, start := pipeline(t, 302, 16)
	res, err := Run(events, start, 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Retrainings {
		if rt.WindowSec != 300 {
			t.Errorf("untuned run recorded window %d", rt.WindowSec)
		}
	}
}
