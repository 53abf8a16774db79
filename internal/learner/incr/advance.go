package incr

import (
	"sort"

	"repro/internal/learner"
	"repro/internal/preprocess"
)

// Delta reports what one Advance did to the maintained window.
type Delta struct {
	// Applied is the number of events ingested at the window end, Expired
	// the number that left at the window start.
	Applied int
	Expired int
	// Rebuild marks a full from-scratch build; Reason says why the
	// fallback fired (first build, parameter change, backwards slide,
	// drift audit).
	Rebuild bool
	Reason  string
}

// Advance slides the maintained window to [from, to) over the given
// time-sorted stream, which must cover at least [from, to) and agree
// with the previously-fed stream on the overlap. The window parameter
// p.Window() normally matches the configuration; a caller that passes
// another degrades this advance to a full rebuild under the new window,
// never to counts kept under the old one.
//
// Statistics are updated in four moves: (1) the event-set cache's exact
// delta drives the itemset counts, (2) contributions anchored before the
// new start are subtracted as stored, (3) fatal runs anchored within W_P
// of the new start are recomputed against the shortened lookback, and
// (4) the appended tail is ingested through the same recurrence a batch
// scan would run — including the end-provisional flip of the previous
// last fatal's "followed".
func (s *State) Advance(events []preprocess.TaggedEvent, from, to int64, p learner.Params) Delta {
	s.mu.Lock()
	defer s.mu.Unlock()

	windowMs := p.Window()
	idx := func(t int64) int {
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
	}
	lo, hi := idx(from), idx(to)

	reason := ""
	switch {
	case !s.valid:
		reason = "first build"
	case windowMs != s.cfg.WindowMs:
		reason = "window parameter changed"
	case from < s.from:
		reason = "window start moved backwards"
	case to < s.to:
		reason = "window end moved backwards"
	}
	if reason != "" {
		s.rebuild(events, lo, hi, from, to, windowMs)
		return Delta{Applied: hi - lo, Rebuild: true, Reason: reason}
	}

	prevCount := s.count
	start := idx(s.to)
	if start < lo {
		// The window jumped clean past the old end: events in
		// [s.to, from) belong to neither window and must not be ingested.
		start = lo
	}

	// (1) Transactions and their all-subset counts.
	sets, sdelta := s.cache.Advance(events, from, to, windowMs, s.cfg.MaxItems)
	s.sets = sets
	if sdelta.Rebuild {
		s.resetItemsets()
		for i := range sets {
			s.applySet(&sets[i], 1)
		}
	} else {
		for i := range sdelta.Removed {
			s.applySet(&sdelta.Removed[i], -1)
		}
		for i := range sdelta.Added {
			s.applySet(&sdelta.Added[i], 1)
		}
	}

	// (2) Expire start-of-window contributions, (3) shorten boundary
	// lookbacks, (4) ingest the tail.
	s.expire(from)
	s.recomputeBoundary(from)
	for i := start; i < hi; i++ {
		s.ingest(&events[i])
	}

	s.from, s.to = from, to
	s.count = hi - lo
	s.valid = true
	s.invalidateServed()
	s.advances++

	if s.cfg.VerifyEvery > 0 && s.advances%s.cfg.VerifyEvery == 0 && s.drifted(events, lo, hi) {
		s.rebuild(events, lo, hi, from, to, windowMs)
		return Delta{Applied: hi - lo, Rebuild: true, Reason: "drift audit mismatch"}
	}
	return Delta{Applied: hi - start, Expired: prevCount + (hi - start) - (hi - lo)}
}

// rebuild discards all maintained state and rebuilds [from, to) from
// scratch through the same ingest recurrence.
func (s *State) rebuild(events []preprocess.TaggedEvent, lo, hi int, from, to, windowMs int64) {
	s.cfg.WindowMs = windowMs
	// A fresh cache forces a clean event-set build too — on the drift
	// path the cache contents are as suspect as the counters.
	s.cache = learner.NewEventSetCache()
	sets, _ := s.cache.Advance(events, from, to, windowMs, s.cfg.MaxItems)
	s.sets = sets
	s.resetItemsets()
	for i := range sets {
		s.applySet(&sets[i], 1)
	}

	s.fatals = s.fatals[:0]
	for k := range s.occ {
		s.occ[k] = 0
		s.succ[k] = 0
	}
	s.gaps = s.gaps[:0]
	for i := lo; i < hi; i++ {
		s.ingest(&events[i])
	}

	s.from, s.to = from, to
	s.count = hi - lo
	s.valid = true
	s.invalidateServed()
	s.advances++
}

// ingest appends one event at the window end. This is exactly the batch
// recurrence: a fatal flips the previous fatal's provisional "followed"
// (and its success counters), records the inter-arrival gap, and computes
// its own run against the in-window fatals behind it. Non-fatals carry no
// statistic of their own here (event sets are the cache's business).
func (s *State) ingest(e *preprocess.TaggedEvent) {
	if !e.Fatal {
		return
	}
	w := s.cfg.WindowMs
	if n := len(s.fatals); n > 0 {
		prev := &s.fatals[n-1]
		if d := e.Time - prev.T; d > 0 {
			s.gaps = append(s.gaps, gapRec{T1: prev.T, Gap: float64(d) / 1000})
		}
		if !prev.Followed && e.Time-prev.T <= w {
			prev.Followed = true
			for k := 1; k <= prev.Run; k++ {
				s.succ[k]++
			}
		}
	}
	run := 1
	for j := len(s.fatals) - 1; j >= 0 && run < s.cfg.MaxK; j-- {
		if e.Time-s.fatals[j].T > w {
			break
		}
		run++
	}
	s.fatals = append(s.fatals, fatalRec{T: e.Time, Run: run})
	for k := 1; k <= run; k++ {
		s.occ[k]++
	}
}

// expire pops every record anchored before the new window start,
// subtracting its stored contribution exactly.
func (s *State) expire(from int64) {
	k := 0
	for k < len(s.fatals) && s.fatals[k].T < from {
		f := &s.fatals[k]
		for j := 1; j <= f.Run; j++ {
			s.occ[j]--
			if f.Followed {
				s.succ[j]--
			}
		}
		k++
	}
	if k > 0 {
		s.fatals = append(s.fatals[:0], s.fatals[k:]...)
	}

	k = 0
	for k < len(s.gaps) && s.gaps[k].T1 < from {
		k++
	}
	if k > 0 {
		s.gaps = append(s.gaps[:0], s.gaps[k:]...)
	}
}

// recomputeBoundary re-derives the run length of every fatal within W_P
// of the new window start — the only fatals whose lookback could have
// crossed it. Expiry has already removed the out-of-window fatals, so
// counting against the deque is counting against the window slice; runs
// only shrink as the start advances, and the counters give back exactly
// the difference.
func (s *State) recomputeBoundary(from int64) {
	w := s.cfg.WindowMs
	for i := range s.fatals {
		f := &s.fatals[i]
		if f.T >= from+w {
			break
		}
		run := 1
		for j := i - 1; j >= 0 && run < s.cfg.MaxK; j-- {
			if f.T-s.fatals[j].T > w {
				break
			}
			run++
		}
		for k := run + 1; k <= f.Run; k++ {
			s.occ[k]--
			if f.Followed {
				s.succ[k]--
			}
		}
		f.Run = run
	}
}

// applySet folds one transaction into (delta=+1) or out of (delta=-1)
// the itemset counts: the dense level-1 class counts plus every subset
// of up to MaxBody items, packed the same way assoc packs candidates.
func (s *State) applySet(set *learner.EventSet, delta int) {
	items := set.Items
	n := len(items)
	if n == 0 {
		return
	}
	if grow := items[n-1] + 1; grow > len(s.itemCounts) {
		grown := make([]int32, grow)
		copy(grown, s.itemCounts)
		s.itemCounts = grown
	}
	for _, it := range items {
		s.itemCounts[it] += int32(delta)
	}

	// Depth-first subset enumeration with incrementally-packed keys; the
	// explicit stack keeps the hot path allocation-free.
	maxBody := s.cfg.MaxBody
	target := set.Target
	var idxs [maxPackedItems]int
	var keys [maxPackedItems]uint64
	depth := 0
	idxs[0] = 0
	for depth >= 0 {
		i := idxs[depth]
		if i >= n {
			depth--
			if depth >= 0 {
				idxs[depth]++
			}
			continue
		}
		var base uint64
		if depth > 0 {
			base = keys[depth-1]
		}
		key := base<<maxClassBits | uint64(items[i]+1)
		keys[depth] = key
		s.bump(key, target, delta)
		if depth+1 < maxBody && i+1 < n {
			depth++
			idxs[depth] = i + 1
		} else {
			idxs[depth]++
		}
	}
}

const maxPackedItems = 64 / maxClassBits // 4, as in assoc

// bump adjusts one itemset's global and per-target count, dropping
// zeroed entries so the map tracks the live window only.
func (s *State) bump(key uint64, target, delta int) {
	e := s.itemsets[key]
	if e == nil {
		if delta < 0 {
			return // underflow: the drift audit is the backstop
		}
		e = &itemsetEntry{}
		s.itemsets[key] = e
	}
	e.global += delta
	if e.global <= 0 {
		delete(s.itemsets, key)
		return
	}
	for i := range e.byTarget {
		if e.byTarget[i].Target == target {
			e.byTarget[i].Count += delta
			if e.byTarget[i].Count == 0 {
				e.byTarget = append(e.byTarget[:i], e.byTarget[i+1:]...)
			}
			return
		}
	}
	e.byTarget = append(e.byTarget, learner.TargetCount{Target: target, Count: delta})
}

func (s *State) resetItemsets() {
	s.itemsets = make(map[uint64]*itemsetEntry, len(s.itemsets))
	for i := range s.itemCounts {
		s.itemCounts[i] = 0
	}
}

func (s *State) invalidateServed() {
	s.gapsOut = nil
	s.times = nil
}

// drifted cross-checks cheap invariants of the maintained state against
// the input slice: the event count, the fatal count, and a fatal-time
// checksum. A mismatch means the caller broke the stream contract
// (mutated history, inconsistent slices) and the state must rebuild.
func (s *State) drifted(events []preprocess.TaggedEvent, lo, hi int) bool {
	if hi-lo != s.count {
		return true
	}
	nf, sum := 0, int64(0)
	for i := lo; i < hi; i++ {
		if events[i].Fatal {
			nf++
			sum += events[i].Time
		}
	}
	if nf != len(s.fatals) {
		return true
	}
	var dsum int64
	for i := range s.fatals {
		dsum += s.fatals[i].T
	}
	return dsum != sum
}
