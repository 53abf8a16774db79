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
// revision cost grows with the stream, not with (stream × rules). Across
// the passes of one training chain a Carry keeps each candidate's replay,
// so a pass rescores only what its window's slide changed (carry.go).
package reviser

import (
	"math"

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

// Revise evaluates every candidate on the view's events and returns the
// kept rules plus the full scorecard (Algorithm 1). A view that carries
// the previous pass's replay (tr.Replay holds a *Carry) rescores only
// what changed since that pass; any other view is replayed in full. Both
// give the same scores.
func (rv *Reviser) Revise(candidates []learner.Rule, tr *learner.Prepared,
	p learner.Params) ([]learner.Rule, []RuleScore) {

	var outcomes []eval.Outcome
	if c, ok := tr.Replay.(*Carry); ok && c != nil {
		outcomes = c.score(candidates, tr.Events, p)
	} else {
		outcomes = ScoreAll(candidates, tr.Events, p)
	}
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

// ScoreAll scores every rule independently over a time-sorted stream in a
// single pass, returning outcomes parallel to rules.
func ScoreAll(rules []learner.Rule, events []preprocess.TaggedEvent,
	p learner.Params) []eval.Outcome {

	var s scorer
	s.reset(rules, p)
	s.evs = pack(make([]ev, 0, len(events)), events)
	s.size()
	fatals := s.run()
	return s.outcomes(rules, fatals)
}

// ev is what the replay reads of an event, packed: the walk over a
// window then streams 16 bytes an event instead of the whole record.
type ev struct {
	time  int64
	class int32
	fatal bool
}

// pack appends the packed form of events to dst.
func pack(dst []ev, events []preprocess.TaggedEvent) []ev {
	for i := range events {
		e := &events[i]
		dst = append(dst, ev{time: e.Time, class: int32(e.Class), fatal: e.Fatal})
	}
	return dst
}

// warnState is one rule's warning state. A rule holds at most one open
// warning at a time (triggers during an open window are deduplicated,
// matching the online predictor's counting).
type warnState struct {
	lastWarn     int64 // ms of the last warning; -1 initially
	openDeadline int64 // ms; -1 when no warning is open
	openStart    int64
	openHit      bool
	openCap      int32 // fatals the open warning has covered so far
}

// result is what settling the open warning adds to the rule's score.
func (w *warnState) result() tally {
	if w.openHit {
		return tally{tp: 1, captured: w.openCap}
	}
	return tally{fp: 1, captured: w.openCap}
}

// tally sums settled warnings: true and false positives and the fatals
// they covered.
type tally struct{ tp, fp, captured int32 }

func (t tally) plus(u tally) tally {
	return tally{t.tp + u.tp, t.fp + u.fp, t.captured + u.captured}
}

func (t tally) minus(u tally) tally {
	return tally{t.tp - u.tp, t.fp - u.fp, t.captured - u.captured}
}

// replay is one scoring key's run through the pass. Rules with equal
// keys warn at the same events, so they share one replay.
type replay struct {
	warnState
	rule  *learner.Rule
	key   key
	keyed bool  // key is the rule's scoring key (keyOf)
	total tally // settled warnings, plus the carried middle once parked
	// ch is the chain this pass records for the next one (nil when no
	// Carry keeps it, or the rule has no key). prev is the previous
	// pass's chain, kept until the replay syncs with it (carry.go).
	ch     *chain
	prev   *chain
	parked bool
}

// settle closes the open warning into the total and the recorded chain.
func (r *replay) settle() {
	t := r.result()
	r.total = r.total.plus(t)
	if r.ch != nil {
		r.ch.starts = append(r.ch.starts, r.openStart)
		r.ch.sums = append(r.ch.sums, r.ch.sums[len(r.ch.sums)-1].plus(t))
	}
	r.openDeadline = -1
}

// scorer is one pass of the single-pass replay: the replays, their
// dispatch indexes (mirroring the predictor's), the open warnings and the
// shared lookback. A Carry reuses one across passes.
type scorer struct {
	windowMs, dedupMs int64
	evs               []ev // the pass's events
	reps              []replay
	byKey             map[key]int32
	keyOf             []int32   // rule index -> replay index
	eList             [][]int32 // body class -> association replays
	stat, dist        []int32
	open              []int32 // replays with an open warning
	// earliest never exceeds an open deadline, so while now <= earliest
	// no warning can have expired and the sweep is skipped. A re-trigger
	// moves a deadline later and leaves earliest low, which costs at
	// most one extra sweep.
	earliest int64
	// lastSeen is the shared lookback: a class is within W_P of now
	// exactly when its latest occurrence is. fatalWindow[fhead:] are the
	// fatals within W_P.
	lastSeen    []int64
	fatalWindow []int64

	// Carried passes only (carry.go): tail is the index of the first
	// event after the previous pass, and from the event at elig until
	// tail a sync is exact; carried lists the replays with a previous
	// chain, parkedNow those parked during the current event.
	tail      int
	elig      int
	carried   []int32
	parkedNow []int32
}

// reset readies the scorer for a pass: it groups rules by scoring key,
// reusing the last pass's storage. The caller then loads evs and calls
// size.
func (s *scorer) reset(rules []learner.Rule, p learner.Params) {
	s.windowMs = p.Window()
	// Alarm spacing mirrors the runtime predictor: capped at the base
	// 300 s window even when scoring wider prediction windows, so the
	// reviser judges rules under the same counting they will face live.
	s.dedupMs = min(s.windowMs, 300_000)
	s.earliest = math.MaxInt64
	s.tail = -1
	s.elig = -1
	s.carried = s.carried[:0]
	s.open, s.parkedNow = s.open[:0], s.parkedNow[:0]
	s.unlist()

	if s.byKey == nil {
		s.byKey = make(map[key]int32, len(rules))
	}
	clear(s.byKey)
	s.reps = s.reps[:0]
	s.keyOf = s.keyOf[:0]
	for i := range rules {
		k, keyed := keyOf(&rules[i])
		idx, ok := s.byKey[k]
		if !ok || !keyed {
			idx = int32(len(s.reps))
			if keyed {
				s.byKey[k] = idx
			}
			s.reps = append(s.reps, replay{rule: &rules[i], key: k, keyed: keyed,
				warnState: warnState{lastWarn: -1, openDeadline: -1}})
		}
		s.keyOf = append(s.keyOf, idx)
	}
}

// size sizes the dense per-class tables for the rules and evs, and
// indexes the rules. The catalog plus the unknown-event fallback keep
// class IDs small (≈1200), so slices beat map lookups on the hot path.
func (s *scorer) size() {
	maxClass := 0
	for i := range s.evs {
		maxClass = max(maxClass, int(s.evs[i].class))
	}
	for idx := range s.reps {
		for _, class := range s.reps[idx].rule.Body {
			maxClass = max(maxClass, class)
		}
	}
	if len(s.eList) <= maxClass {
		s.eList = append(s.eList, make([][]int32, maxClass+1-len(s.eList))...)
	}
	if len(s.lastSeen) <= maxClass {
		s.lastSeen = make([]int64, maxClass+1)
	}
	for c := range s.lastSeen {
		s.lastSeen[c] = math.MinInt64
	}
	s.fatalWindow = s.fatalWindow[:0]
	s.index()
}

// unlist empties the dispatch lists of the current replays.
func (s *scorer) unlist() {
	for idx := range s.reps {
		for _, class := range s.reps[idx].rule.Body {
			s.eList[class] = s.eList[class][:0]
		}
	}
	s.stat, s.dist = s.stat[:0], s.dist[:0]
}

// index rebuilds the dispatch lists over every replay that is not
// parked.
func (s *scorer) index() {
	s.unlist()
	for idx := range s.reps {
		r := &s.reps[idx]
		if r.parked {
			continue
		}
		switch r.rule.Kind {
		case learner.Association:
			for _, class := range r.rule.Body {
				s.eList[class] = append(s.eList[class], int32(idx))
			}
		case learner.Statistical:
			s.stat = append(s.stat, int32(idx))
		case learner.Distribution:
			s.dist = append(s.dist, int32(idx))
		}
	}
}

// closeExpired settles every open warning whose deadline is before now,
// the i-th event's time. Only a sweep with earliest < now can find one.
func (s *scorer) closeExpired(i int, now int64) {
	s.earliest = math.MaxInt64
	kept := s.open[:0]
	for _, idx := range s.open {
		r := &s.reps[idx]
		if r.parked {
			continue
		}
		if r.openDeadline >= now {
			kept = append(kept, idx)
			s.earliest = min(s.earliest, r.openDeadline)
			continue
		}
		r.settle()
		if r.prev != nil && i >= s.elig && i < s.tail {
			s.trySync(idx, now)
		}
	}
	s.open = kept
}

// trigger opens a warning for replay idx at the i-th event, unless the
// dedup spacing suppresses it.
func (s *scorer) trigger(idx int32, i int, now int64) {
	r := &s.reps[idx]
	if r.lastWarn >= 0 && now-r.lastWarn < s.dedupMs {
		return // deduplicated
	}
	if r.openDeadline >= 0 {
		// A previous warning is still open (possible when the dedup
		// interval is shorter than the window): settle it now and reuse
		// its slot in the open list rather than duplicating it.
		r.settle()
	} else {
		s.open = append(s.open, idx)
	}
	r.warnState = warnState{lastWarn: now, openStart: now, openDeadline: now + s.windowMs}
	s.earliest = min(s.earliest, r.openDeadline)
	if r.prev != nil && i >= s.elig && i < s.tail {
		if k, ok := r.prev.startsAt(now); ok {
			s.park(idx, k)
		}
	}
}

// run replays every unparked rule over evs and returns the number of
// fatals.
func (s *scorer) run() (fatals int) {
	windowMs := s.windowMs
	lastSeen, fatalWindow := s.lastSeen, s.fatalWindow
	fhead := 0
	lastFatal := int64(-1)

	for i := range s.evs {
		e := &s.evs[i]
		now := e.time
		if i == s.tail {
			s.resume()
		}
		if s.earliest < now {
			s.closeExpired(i, now)
		}
		if i == s.elig {
			for _, idx := range s.carried {
				if s.reps[idx].prev != nil {
					s.trySync(idx, now)
				}
			}
		}

		if e.fatal {
			fatals++
			// Credit open warnings that strictly precede this failure.
			for _, idx := range s.open {
				r := &s.reps[idx]
				if r.openStart < now && now <= r.openDeadline {
					r.openCap++
					r.openHit = true
				}
			}
		}

		// Triggers (after capture crediting, so a warning opened by this
		// event cannot claim it).
		if e.fatal {
			for fhead < len(fatalWindow) && now-fatalWindow[fhead] > windowMs {
				fhead++
			}
			runLen := len(fatalWindow) - fhead + 1
			for _, idx := range s.stat {
				if r := &s.reps[idx]; !r.parked && r.rule.Count <= runLen {
					s.trigger(idx, i, now)
				}
			}
		} else {
			since := now - windowMs
			for _, idx := range s.eList[e.class] {
				r := &s.reps[idx]
				if r.parked {
					continue
				}
				matched := true
				for _, class := range r.rule.Body {
					if class != int(e.class) && lastSeen[class] < since {
						matched = false
						break
					}
				}
				if matched {
					s.trigger(idx, i, now)
				}
			}
		}
		if lastFatal >= 0 {
			elapsed := (now - lastFatal) / 1000
			for _, idx := range s.dist {
				if elapsed > s.reps[idx].rule.ElapsedSec {
					s.trigger(idx, i, now)
				}
			}
		}
		if len(s.parkedNow) > 0 {
			s.unindex()
		}

		// Admit into the shared lookback.
		lastSeen[e.class] = now
		if e.fatal {
			if fhead > 0 && fhead == len(fatalWindow) {
				fatalWindow, fhead = fatalWindow[:0], 0
			}
			fatalWindow = append(fatalWindow, now)
			lastFatal = now
		}
	}
	s.fatalWindow = fatalWindow
	return fatals
}

// outcomes settles what is still open and maps the replays back onto the
// rules.
func (s *scorer) outcomes(rules []learner.Rule, fatals int) []eval.Outcome {
	out := make([]eval.Outcome, len(rules))
	for i := range rules {
		r := &s.reps[s.keyOf[i]]
		t := r.total
		if r.openDeadline >= 0 {
			t = t.plus(r.result())
		}
		out[i] = eval.Outcome{
			TP:       int(t.tp),
			FP:       int(t.fp),
			Captured: int(t.captured),
			Fatals:   fatals,
			FN:       fatals - int(t.captured),
		}
	}
	return out
}
