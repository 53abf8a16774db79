package reviser

import (
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

var p300 = learner.Params{WindowSec: 300}

func mk(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
	return preprocess.TaggedEvent{
		Event: raslog.Event{Time: tSec * 1000}, Class: class, Fatal: fatal,
	}
}

func assocRule(target int, body ...int) learner.Rule {
	return learner.Rule{Kind: learner.Association,
		Body: learner.NormalizeBody(body), Target: target}
}

// goodAndBadStream builds a stream where class 1 reliably precedes fatal
// 99 and class 2 fires often but never precedes a failure.
func goodAndBadStream() []preprocess.TaggedEvent {
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for i := 0; i < 30; i++ {
		events = append(events, mk(tm, 1, false), mk(tm+60, 99, true))
		tm += 4000
		events = append(events, mk(tm, 2, false))
		tm += 4000
	}
	return events
}

func TestReviserKeepsGoodDropsBad(t *testing.T) {
	rv := New()
	good := assocRule(99, 1)
	bad := assocRule(99, 2)
	kept, scores := rv.Revise([]learner.Rule{good, bad}, learner.Prepare(goodAndBadStream()), p300)
	if len(kept) != 1 || kept[0].ID() != good.ID() {
		t.Fatalf("kept = %v", kept)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	for _, s := range scores {
		switch s.Rule.ID() {
		case good.ID():
			if !s.Kept || s.ROC < 0.7 {
				t.Errorf("good rule score = %+v", s)
			}
			if s.Precision() < 0.9 {
				t.Errorf("good rule precision = %g", s.Precision())
			}
		case bad.ID():
			if s.Kept || s.TP != 0 {
				t.Errorf("bad rule score = %+v", s)
			}
		}
	}
}

func TestReviserMinROCBoundary(t *testing.T) {
	// Half the failures have no precursor: the rule's recall is 0.5, so
	// ROC = sqrt(1 + 0.25) ≈ 1.118. MinROC must cut exactly there.
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for i := 0; i < 20; i++ {
		events = append(events, mk(tm, 1, false), mk(tm+60, 99, true))
		tm += 4000
		events = append(events, mk(tm, 98, true)) // precursor-less failure
		tm += 4000
	}
	rule := assocRule(99, 1)
	strict := &Reviser{MinROC: 1.2}
	kept, scores := strict.Revise([]learner.Rule{rule}, learner.Prepare(events), p300)
	if len(kept) != 0 {
		t.Errorf("rule with ROC %.3f survived MinROC 1.2", scores[0].ROC)
	}
	if scores[0].ROC < 1.0 || scores[0].ROC > 1.2 {
		t.Errorf("ROC = %.3f, want ~1.118", scores[0].ROC)
	}
	lax := &Reviser{MinROC: 1.0}
	kept, _ = lax.Revise([]learner.Rule{rule}, learner.Prepare(events), p300)
	if len(kept) != 1 {
		t.Error("rule rejected at MinROC 1.0")
	}
}

func TestReviserEmptyCandidates(t *testing.T) {
	kept, scores := New().Revise(nil, learner.Prepare(goodAndBadStream()), p300)
	if len(kept) != 0 || len(scores) != 0 {
		t.Errorf("empty revise = %v, %v", kept, scores)
	}
}

func TestReviserNeverFiringRuleDropped(t *testing.T) {
	rule := assocRule(99, 777) // class never occurs
	kept, scores := New().Revise([]learner.Rule{rule}, learner.Prepare(goodAndBadStream()), p300)
	if len(kept) != 0 {
		t.Error("never-firing rule kept")
	}
	if scores[0].ROC != 0 {
		t.Errorf("ROC = %g, want 0", scores[0].ROC)
	}
}

func TestReviserStatisticalRule(t *testing.T) {
	// Bursts where k=2 within the window always continues: high ROC.
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for i := 0; i < 25; i++ {
		events = append(events,
			mk(tm, 90, true), mk(tm+50, 90, true), mk(tm+100, 90, true))
		tm += 7200
	}
	rule := learner.Rule{Kind: learner.Statistical, Count: 2, Target: learner.AnyFatal}
	kept, scores := New().Revise([]learner.Rule{rule}, learner.Prepare(events), p300)
	if len(kept) != 1 {
		t.Fatalf("statistical rule dropped: %+v", scores[0])
	}
	if scores[0].Precision() < 0.9 {
		t.Errorf("precision = %g", scores[0].Precision())
	}
}

func TestROCValueComputation(t *testing.T) {
	// Via a fully-precise fully-covering stream, ROC should approach
	// sqrt(2).
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for i := 0; i < 20; i++ {
		events = append(events, mk(tm, 1, false), mk(tm+50, 99, true))
		tm += 4000
	}
	rule := assocRule(99, 1)
	_, scores := New().Revise([]learner.Rule{rule}, learner.Prepare(events), p300)
	if scores[0].ROC < 1.4 {
		t.Errorf("perfect rule ROC = %g, want ~sqrt(2)", scores[0].ROC)
	}
}

func TestScoreAllWideWindowNoDoubleCounting(t *testing.T) {
	// With W_P wider than the 300 s alarm spacing, a rule can re-trigger
	// while its previous warning is still open; warnings must still be
	// settled exactly once each. Class 1 fires every 400 s with a fatal
	// after every third occurrence.
	var events []preprocess.TaggedEvent
	tm := int64(0)
	occurrences := 0
	for i := 0; i < 30; i++ {
		events = append(events, mk(tm, 1, false))
		occurrences++
		if i%3 == 2 {
			events = append(events, mk(tm+100, 99, true))
		}
		tm += 400
	}
	rule := assocRule(99, 1)
	outcomes := ScoreAll([]learner.Rule{rule},
		events, learner.Params{WindowSec: 3600})
	o := outcomes[0]
	if o.TP+o.FP > occurrences {
		t.Fatalf("settled %d warnings from %d triggers", o.TP+o.FP, occurrences)
	}
	if o.TP == 0 {
		t.Fatal("no true positives on a reliable indicator")
	}
	if o.Captured > o.Fatals {
		t.Fatalf("captured %d of %d fatals", o.Captured, o.Fatals)
	}
}

// replayRule is Algorithm 1 for one rule, written out literally: the rule
// replays the stream alone, looks back over the events within W_P of
// each event, and holds at most one open warning.
func replayRule(r learner.Rule, events []preprocess.TaggedEvent, p learner.Params) eval.Outcome {
	windowMs := p.Window()
	dedupMs := min(windowMs, 300_000)
	var o eval.Outcome
	lastWarn, lastFatal := int64(-1), int64(-1)
	open, hit := false, false
	var openStart, deadline int64
	settle := func() {
		if hit {
			o.TP++
		} else {
			o.FP++
		}
		open = false
	}
	for i, e := range events {
		now := e.Time
		if open && deadline < now {
			settle()
		}
		if e.Fatal {
			o.Fatals++
			if open && openStart < now && now <= deadline {
				o.Captured++
				hit = true
			}
		}
		lo := i
		for lo > 0 && now-events[lo-1].Time <= windowMs {
			lo--
		}
		prior := events[lo:i]
		fires := false
		switch r.Kind {
		case learner.Statistical:
			run := 1
			for _, q := range prior {
				if q.Fatal {
					run++
				}
			}
			fires = e.Fatal && r.Count <= run
		case learner.Association:
			fires = !e.Fatal && slices.Contains(r.Body, e.Class)
			for _, c := range r.Body {
				if c != e.Class && !slices.ContainsFunc(prior, func(q preprocess.TaggedEvent) bool { return q.Class == c }) {
					fires = false
				}
			}
		case learner.Distribution:
			fires = lastFatal >= 0 && (now-lastFatal)/1000 > r.ElapsedSec
		}
		if fires && (lastWarn < 0 || now-lastWarn >= dedupMs) {
			if open {
				settle()
			}
			open, hit = true, false
			lastWarn, openStart, deadline = now, now, now+windowMs
		}
		if e.Fatal {
			lastFatal = now
		}
	}
	if open {
		settle()
	}
	o.FN = o.Fatals - o.Captured
	return o
}

// TestScoreAllMatchesPerRuleReplay pins the single-pass scorer, with its
// shared window and its skipped sweeps, to the rule-by-rule replay over
// random streams, with windows narrower than, equal to and wider than the
// 300 s alarm spacing.
func TestScoreAllMatchesPerRuleReplay(t *testing.T) {
	rules := ruleZoo()
	streams := [][]preprocess.TaggedEvent{goodAndBadStream()}
	for _, seed := range []uint64{3, 8, 21} {
		streams = append(streams, denseStream(seed, 2000))
	}
	for si, events := range streams {
		for _, p := range []learner.Params{{WindowSec: 60}, p300, {WindowSec: 3600}} {
			got := ScoreAll(rules, events, p)
			fired := 0
			for i, r := range rules {
				want := replayRule(r, events, p)
				if got[i] != want {
					t.Errorf("stream %d W %d rule %s: scored %+v, replayed %+v", si, p.WindowSec, r.ID(), got[i], want)
				}
				fired += want.TP + want.FP
			}
			if fired == 0 {
				t.Fatalf("stream %d W %d: no rule fired", si, p.WindowSec)
			}
		}
	}
}

// denseStream builds a long mixed stream with many classes, bursts and
// irregular fatals, so rule scoring exercises window eviction, warning
// overlap and dedup paths.
func denseStream(seed uint64, n int) []preprocess.TaggedEvent {
	r := stats.NewRNG(seed)
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for len(events) < n {
		tm += int64(3 + r.Intn(90))
		switch {
		case r.Intn(9) == 0:
			events = append(events, mk(tm, 99, true))
		case r.Intn(17) == 0:
			events = append(events, mk(tm, 98, true))
		default:
			events = append(events, mk(tm, r.Intn(20), false))
		}
	}
	return events
}

// ruleZoo builds a mixed candidate set: association rules over varied
// bodies, the statistical ladder, and a few distribution rules.
func ruleZoo() []learner.Rule {
	var rules []learner.Rule
	for a := 0; a < 20; a++ {
		rules = append(rules, assocRule(99, a))
		rules = append(rules, assocRule(98, a, (a+1)%20))
		if a%3 == 0 {
			rules = append(rules, assocRule(learner.AnyFatal, a, (a+5)%20, (a+11)%20))
		}
	}
	for k := 1; k <= 8; k++ {
		rules = append(rules, learner.Rule{
			Kind: learner.Statistical, Count: k, Target: learner.AnyFatal})
	}
	for _, gap := range []int64{60, 600, 3600} {
		rules = append(rules, learner.Rule{
			Kind: learner.Distribution, Target: learner.AnyFatal, ElapsedSec: gap})
	}
	return rules
}
