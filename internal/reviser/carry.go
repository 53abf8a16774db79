package reviser

import (
	"math"
	"slices"
	"sort"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/preprocess"
)

// Carry is the reviser's replay state carried across the passes of one
// training chain: for every scoring key of the last pass (keyOf), the
// chain of warnings its replay settled, with prefix sums, and its state
// after the pass's last event. The zero value is ready; the first pass
// (and any pass it cannot follow) is a full replay that fills it. Only
// one pass uses a Carry at a time.
//
// Why carrying is exact. An association or statistical rule fires at an
// event depending only on the events within W_P before it, and its
// warnings then depend only on its own state. So two replays of one rule
// that start at different window starts fire alike from the first event
// whose lookback lies inside both windows, and from the first such event
// where their states coincide — the same open warning, or both closed
// and so past dedup — they are identical. A pass over events [f, l] that
// follows a pass over [f0, l0], with f0 <= f <= l0 <= l, therefore
// replays each carried rule only from f until it syncs with its chain,
// takes the chain from the sync point to l0 by a prefix-sum difference,
// and continues from the chain's end state over the events after l0.
// Rules the last pass did not score, and rules without a key, are
// replayed in full. Summing the carried middle, not walking it, is the
// saving: a variant that re-settled every carried warning ran slower
// than the full replay.
type Carry struct {
	valid    bool
	windowMs int64
	chains   map[key]*chain
	// s is reused pass to pass: its evs hold the last pass's events,
	// which the next pass keeps from its own first event on.
	s scorer
}

// key is what a rule's replay depends on: the association body or the
// statistical count. Rules with equal keys warn at the same events.
type key struct {
	kind learner.Kind
	n    int64 // Count, or the association body packed
}

// keyOf returns r's scoring key, and false for a rule that has none,
// which is replayed in full on every pass: an association body that does
// not pack (more than four classes, or one past 2^16 - 2), and a
// distribution rule. A distribution rule's replay depends on its exact
// trigger point, which moves with every refit: no distribution rule
// recurred across the passes of the paper-offline logs (sliding and
// whole, 94 rules) or of a serve-predict-shaped feed (31), so a chain
// kept for one would only cost memory.
func keyOf(r *learner.Rule) (key, bool) {
	switch r.Kind {
	case learner.Association:
		// Up to four classes pack into n, as incr packs its itemsets.
		if len(r.Body) > 4 || slices.ContainsFunc(r.Body, func(c int) bool { return c < 0 || c >= 1<<16-1 }) {
			return key{}, false
		}
		var n int64
		for _, c := range r.Body {
			n = n<<16 | int64(c+1)
		}
		return key{kind: r.Kind, n: n}, true
	case learner.Statistical:
		return key{kind: r.Kind, n: int64(r.Count)}, true
	}
	return key{}, false
}

// chain is one key's replay over a pass: the start times of the warnings
// it settled, in order, with prefix sums (sums[j] totals warnings before
// j; only differences matter), and its state after the pass's last event,
// whose open warning is left unsettled.
type chain struct {
	starts []int64
	sums   []tally
	end    warnState
}

func newChain() *chain { return &chain{sums: make([]tally, 1, 8)} }

// startsAt returns the index of the chain's warning that starts at t:
// a settled one, or len(starts) for the warning open at the end.
func (ch *chain) startsAt(t int64) (int, bool) {
	k := sort.Search(len(ch.starts), func(j int) bool { return ch.starts[j] >= t })
	if k < len(ch.starts) {
		return k, ch.starts[k] == t
	}
	return k, ch.end.openDeadline >= 0 && ch.end.openStart == t
}

// stateAt returns the chain's state just before the first event at time
// t (at most the pass's last event time): k, the first warning starting
// at or after t, and the warning open there (an index as startsAt
// returns it, and its start), or open -1 when none is.
func (ch *chain) stateAt(t, windowMs int64) (k, open int, start int64) {
	n := len(ch.starts)
	k = sort.Search(n, func(j int) bool { return ch.starts[j] >= t })
	if k == n && ch.end.openDeadline >= 0 && ch.end.openStart < t {
		return k, n, ch.end.openStart
	}
	// The last warning before t is still open unless its deadline has
	// passed; a re-trigger would have been a later start, which is >= t.
	if k > 0 && ch.starts[k-1]+windowMs >= t {
		return k, k - 1, ch.starts[k-1]
	}
	return k, -1, 0
}

// score is ScoreAll over events, rescoring only what changed since the
// pass the carry holds, and then holding this pass.
func (c *Carry) score(rules []learner.Rule, events []preprocess.TaggedEvent, p learner.Params) []eval.Outcome {
	s := &c.s
	s.reset(rules, p)
	kept, tail, carried := c.follows(events, p)
	// A pass that stops part-way leaves nothing to carry.
	c.valid = false
	if carried {
		// The last pass's events from this pass's first on, then the
		// events after it: only those are read from the records.
		s.evs = pack(s.evs[kept:], events[tail:])
		s.tail = tail
	} else {
		s.evs = pack(s.evs[:0], events)
	}
	s.size()
	if carried {
		c.attach(s, kept > 0)
	}
	clear(c.chains)
	for idx := range s.reps {
		if r := &s.reps[idx]; r.keyed {
			r.ch = newChain()
		}
	}
	fatals := s.run()
	for idx := range s.reps {
		// Parked to the end: the previous pass's last event is this one's.
		if r := &s.reps[idx]; r.parked {
			r.warnState, r.parked = r.ch.end, false
		}
	}
	out := s.outcomes(rules, fatals)
	c.hold(s)
	return out
}

// auditPoints is how many events of the overlap follows compares.
const auditPoints = 32

// follows reports whether a pass over events can carry the last one, and
// where: the last pass's events from kept on are this pass's events
// before tail. It can when W_P is unchanged, the first and last events
// did not move backwards, the passes overlap, and an audit of the
// overlap passes: as many events in both, and evenly spaced ones equal.
func (c *Carry) follows(events []preprocess.TaggedEvent, p learner.Params) (kept, tail int, ok bool) {
	prev := c.s.evs
	if !c.valid || c.windowMs != p.Window() || len(events) == 0 || len(prev) == 0 {
		return 0, 0, false
	}
	first, last := events[0].Time, events[len(events)-1].Time
	first0, last0 := prev[0].time, prev[len(prev)-1].time
	if first < first0 || last < last0 || first > last0 {
		return 0, 0, false
	}
	tail = sort.Search(len(events), func(i int) bool { return events[i].Time > last0 })
	kept = sort.Search(len(prev), func(i int) bool { return prev[i].time >= first })
	if tail != len(prev)-kept {
		return 0, 0, false
	}
	for k := 0; k <= auditPoints; k++ {
		i := k * (tail - 1) / auditPoints
		e, q := &events[i], &prev[kept+i]
		if e.Time != q.time || e.Class != int(q.class) || e.Fatal != q.fatal {
			return 0, 0, false
		}
	}
	return kept, tail, true
}

// attach hands each replay whose key the last pass scored its chain and
// sets where syncing starts: at the first event that fires alike in both
// passes, the first whose W_P lookback starts inside this pass — or at
// the first event, unless the last pass had events before this one's
// first (shifted).
func (c *Carry) attach(s *scorer, shifted bool) {
	s.elig = 0
	if shifted {
		evs, since := s.evs, s.evs[0].time+s.windowMs
		s.elig = sort.Search(len(evs), func(i int) bool { return evs[i].time >= since })
	}
	for idx := range s.reps {
		r := &s.reps[idx]
		if prev := c.chains[r.key]; r.keyed && prev != nil {
			r.prev = prev
			s.carried = append(s.carried, int32(idx))
		}
	}
}

// hold keeps this pass's chains for the next pass (its events stay in
// s.evs).
func (c *Carry) hold(s *scorer) {
	if c.chains == nil {
		c.chains = make(map[key]*chain, len(s.reps))
	}
	for idx := range s.reps {
		if r := &s.reps[idx]; r.keyed {
			r.ch.end = r.warnState
			c.chains[r.key] = r.ch
		}
	}
	c.windowMs = s.windowMs
	c.valid = true
}

// trySync parks replay idx if its state at the first event at time now
// coincides with its chain's: both closed, or both holding the same open
// warning.
func (s *scorer) trySync(idx int32, now int64) {
	r := &s.reps[idx]
	k, open, start := r.prev.stateAt(now, s.windowMs)
	switch {
	case r.openDeadline < 0 && open < 0:
		s.park(idx, k)
	case r.openDeadline >= 0 && open >= 0 && r.openStart == start:
		s.park(idx, open)
	}
}

// park hands replay idx over to its previous chain from warning k on:
// the chain's warnings [k, …) are what the replay would settle until the
// previous pass's last event, so their prefix-sum difference joins the
// total, the replay's own warnings so far take the place of the chain's
// before k, and the replay leaves dispatch until the events after the
// previous pass (resume).
func (s *scorer) park(idx int32, k int) {
	r := &s.reps[idx]
	a, head := r.prev, r.ch
	n := len(a.starts)
	r.total = r.total.plus(a.sums[n].minus(a.sums[k]))
	m := len(head.starts)
	if m <= k {
		// In place: overwrite the chain's warnings [k-m, k), summing
		// backwards from sums[k], and drop the front.
		base := k - m
		for j := m - 1; j >= 0; j-- {
			a.starts[base+j] = head.starts[j]
			a.sums[base+j] = a.sums[base+j+1].minus(head.sums[j+1].minus(head.sums[j]))
		}
		a.starts, a.sums = a.starts[base:], a.sums[base:]
	} else {
		for j := k; j < n; j++ {
			head.starts = append(head.starts, a.starts[j])
			head.sums = append(head.sums, head.sums[len(head.sums)-1].plus(a.sums[j+1].minus(a.sums[j])))
		}
		a.starts, a.sums = head.starts, head.sums
	}
	r.ch, r.prev = a, nil
	r.openDeadline = -1 // the chain holds the open warning, if any
	r.parked = true
	s.parkedNow = append(s.parkedNow, idx)
}

// unindex drops the replays parked during this event from dispatch
// (after the event's triggers, which range over those lists).
func (s *scorer) unindex() {
	for _, idx := range s.parkedNow {
		r := &s.reps[idx]
		switch r.rule.Kind {
		case learner.Association:
			for _, class := range r.rule.Body {
				s.eList[class] = drop(s.eList[class], idx)
			}
		case learner.Statistical:
			s.stat = drop(s.stat, idx)
		}
	}
	s.parkedNow = s.parkedNow[:0]
}

// drop removes idx from an unordered dispatch list.
func drop(list []int32, idx int32) []int32 {
	for j, other := range list {
		if other == idx {
			list[j] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// resume restarts every parked replay from its chain's end state at the
// first event after the previous pass, and stops the sync checks: a
// replay still unsynced has replayed every event itself.
func (s *scorer) resume() {
	s.open = s.open[:0]
	s.earliest = math.MaxInt64
	for idx := range s.reps {
		r := &s.reps[idx]
		if r.parked {
			r.warnState = r.ch.end
			r.parked = false
		}
		r.prev = nil
		if r.openDeadline >= 0 {
			s.open = append(s.open, int32(idx))
			s.earliest = min(s.earliest, r.openDeadline)
		}
	}
	s.index()
}
