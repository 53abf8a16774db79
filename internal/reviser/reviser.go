// Package reviser implements the rule reviser (paper §4.2, Algorithm 1).
// The base learners deliberately mine with permissive parameters so that
// rare failure patterns are not missed; the price is bad rules. The
// reviser replays each candidate rule against the training stream,
// counts its true positives, false positives and false negatives, and
// keeps only rules whose ROC value
//
//	ROC(r) = sqrt(m1(r)^2 + m2(r)^2),  m1 = TP/(TP+FP), m2 = TP/(TP+FN)
//
// clears MinROC (paper default 0.7).
//
// Every candidate is scored *as if it ran alone* — exactly Algorithm 1 —
// but all candidates are evaluated in a single pass over the stream, so
// revision cost grows with the stream, not with (stream × rules).
package reviser

import (
	"math"
	"sort"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/preprocess"
)

// Reviser filters candidate rules by replaying them on training data.
type Reviser struct {
	// MinROC is the acceptance threshold (paper default 0.7; the metric
	// ranges up to sqrt(2)).
	MinROC float64
	// KeepDistribution exempts Distribution rules from removal (they are
	// still scored). The probability-distribution expert is the
	// mixture-of-experts *fallback*: it is consulted only when no
	// association or statistical rule matches, so its stand-alone
	// precision understates its value inside the ensemble — scoring it in
	// isolation and pruning it would leave precursor-less failures
	// unpredictable. Default true (see DESIGN.md for the discussion).
	KeepDistribution bool
}

// New returns a reviser with the paper's MinROC.
func New() *Reviser { return &Reviser{MinROC: 0.7, KeepDistribution: true} }

// RuleScore reports one rule's performance on the training stream.
type RuleScore struct {
	Rule learner.Rule
	eval.Outcome
	ROC  float64
	Kept bool
}

// Revise evaluates every candidate on the training stream and returns the
// kept rules plus the full scorecard (Algorithm 1).
func (rv *Reviser) Revise(candidates []learner.Rule, events []preprocess.TaggedEvent,
	p learner.Params) ([]learner.Rule, []RuleScore) {

	outcomes := ScoreAll(candidates, events, p)
	kept := make([]learner.Rule, 0, len(candidates))
	scores := make([]RuleScore, 0, len(candidates))
	for i, rule := range candidates {
		score := RuleScore{Rule: rule, Outcome: outcomes[i], ROC: roc(outcomes[i])}
		score.Kept = score.ROC >= rv.MinROC ||
			(rv.KeepDistribution && rule.Kind == learner.Distribution)
		if score.Kept {
			kept = append(kept, rule)
		}
		scores = append(scores, score)
	}
	return kept, scores
}

// roc computes Algorithm 1's metric: m1 is the rule's precision and m2 its
// recall on the training stream. A rule that never fired scores 0.
func roc(o eval.Outcome) float64 {
	m1 := o.Precision()
	m2 := o.Recall()
	return math.Sqrt(m1*m1 + m2*m2)
}

// ruleState is one rule's in-flight scoring state. Each rule carries at
// most one open warning at a time (triggers during an open window are
// deduplicated, matching the online predictor's counting).
type ruleState struct {
	lastWarn     int64 // ms of the last warning; -1 initially
	openDeadline int64 // ms; -1 when no warning is open
	openStart    int64
	openHit      bool
	tp, fp       int
	captured     int
}

// windowEvent is one entry of the shared sliding window.
type windowEvent struct {
	time  int64
	class int
}

// eventRing is the shared window buffer: a growable ring, so evicting the
// expired prefix moves an index instead of compacting the slice (the old
// append(window[:0], window[cut:]...) was O(window) per event).
type eventRing struct {
	buf     []windowEvent
	head, n int
}

func (r *eventRing) push(e windowEvent) {
	if r.n == len(r.buf) {
		grown := make([]windowEvent, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

func (r *eventRing) front() windowEvent { return r.buf[r.head] }

func (r *eventRing) popFront() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// ScoreAll scores every rule independently over a time-sorted stream in a
// single pass, returning outcomes parallel to rules.
func ScoreAll(rules []learner.Rule, events []preprocess.TaggedEvent,
	p learner.Params) []eval.Outcome {

	windowMs := p.Window()
	// Alarm spacing mirrors the runtime predictor: capped at the base
	// 300 s window even when scoring wider prediction windows, so the
	// reviser judges rules under the same counting they will face live.
	dedupMs := windowMs
	if dedupMs > 300_000 {
		dedupMs = 300_000
	}
	states := make([]ruleState, len(rules))
	for i := range states {
		states[i].lastWarn = -1
		states[i].openDeadline = -1
	}

	// maxClass bounds the dense per-class tables below: the catalog plus
	// the unknown-event fallback keep IDs small (≈1200), so slices beat
	// the old map lookups on the hot path.
	maxClass := 0
	for i := range events {
		if events[i].Class > maxClass {
			maxClass = events[i].Class
		}
	}
	for i := range rules {
		for _, class := range rules[i].Body {
			if class > maxClass {
				maxClass = class
			}
		}
	}

	// Rule indexes by family, mirroring the predictor's dispatch. eList
	// maps a body class to the association rules containing it.
	eList := make([][]int, maxClass+1)
	var statRules, distRules []int
	for i, r := range rules {
		switch r.Kind {
		case learner.Association:
			for _, class := range r.Body {
				eList[class] = append(eList[class], i)
			}
		case learner.Statistical:
			statRules = append(statRules, i)
		case learner.Distribution:
			distRules = append(distRules, i)
		}
	}
	sort.Slice(statRules, func(a, b int) bool {
		return rules[statRules[a]].Count < rules[statRules[b]].Count
	})

	// Shared window state: dense per-class occupancy counts plus the ring
	// of resident events.
	classCount := make([]int32, maxClass+1)
	var window eventRing
	var fatalWindow []int64
	lastFatal := int64(-1)
	totalFatals := 0

	open := make([]int, 0, 64) // rule indexes with an open warning
	// earliest never exceeds an open deadline, so while now <= earliest
	// no warning can have expired and the sweep is skipped. A re-trigger
	// moves a deadline later and leaves earliest low, which costs at most
	// one extra sweep.
	earliest := int64(math.MaxInt64)

	closeExpired := func(now int64) {
		if earliest >= now {
			return
		}
		earliest = math.MaxInt64
		kept := open[:0]
		for _, idx := range open {
			st := &states[idx]
			if st.openDeadline >= now {
				kept = append(kept, idx)
				earliest = min(earliest, st.openDeadline)
				continue
			}
			if st.openHit {
				st.tp++
			} else {
				st.fp++
			}
			st.openDeadline = -1
		}
		open = kept
	}

	trigger := func(idx int, now int64) {
		st := &states[idx]
		if st.lastWarn >= 0 && now-st.lastWarn < dedupMs {
			return // deduplicated
		}
		if st.openDeadline >= 0 {
			// A previous warning is still open (possible when the dedup
			// interval is shorter than the window): settle it now and
			// reuse its slot in the open list rather than duplicating it.
			if st.openHit {
				st.tp++
			} else {
				st.fp++
			}
		} else {
			open = append(open, idx)
		}
		st.lastWarn = now
		st.openStart = now
		st.openDeadline = now + windowMs
		st.openHit = false
		earliest = min(earliest, st.openDeadline)
	}

	for i := range events {
		e := &events[i]
		now := e.Time
		closeExpired(now)

		// Evict the shared window.
		for window.n > 0 && now-window.front().time > windowMs {
			classCount[window.front().class]--
			window.popFront()
		}
		fcut := 0
		for fcut < len(fatalWindow) && now-fatalWindow[fcut] > windowMs {
			fcut++
		}
		if fcut > 0 {
			fatalWindow = append(fatalWindow[:0], fatalWindow[fcut:]...)
		}

		if e.Fatal {
			totalFatals++
			// Credit open warnings that strictly precede this failure.
			for _, idx := range open {
				st := &states[idx]
				// Captured counts every covered fatal; openHit flips the
				// warning to TP once.
				if st.openStart < now && now <= st.openDeadline {
					st.captured++
					st.openHit = true
				}
			}
		}

		// Triggers (after capture crediting, so a warning opened by this
		// event cannot claim it).
		if e.Fatal {
			runLen := len(fatalWindow) + 1
			for _, idx := range statRules {
				if rules[idx].Count <= runLen {
					trigger(idx, now)
				}
			}
		} else {
			for _, idx := range eList[e.Class] {
				rule := &rules[idx]
				matched := true
				for _, class := range rule.Body {
					if class == e.Class {
						continue
					}
					if classCount[class] == 0 {
						matched = false
						break
					}
				}
				if matched {
					trigger(idx, now)
				}
			}
		}
		if lastFatal >= 0 {
			elapsed := (now - lastFatal) / 1000
			for _, idx := range distRules {
				if elapsed > rules[idx].ElapsedSec {
					trigger(idx, now)
				}
			}
		}

		// Admit into the shared window.
		window.push(windowEvent{time: now, class: e.Class})
		classCount[e.Class]++
		if e.Fatal {
			fatalWindow = append(fatalWindow, now)
			lastFatal = now
		}
	}
	closeExpired(math.MaxInt64)

	outcomes := make([]eval.Outcome, len(rules))
	for i := range rules {
		st := &states[i]
		outcomes[i] = eval.Outcome{
			TP:       st.tp,
			FP:       st.fp,
			Captured: st.captured,
			Fatals:   totalFatals,
			FN:       totalFatals - st.captured,
		}
	}
	return outcomes
}
