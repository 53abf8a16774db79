package learner

import (
	"sort"
	"sync"

	"repro/internal/preprocess"
)

// Prepared is the shared training view handed to every base learner: the
// time-sorted tagged stream plus lazily-built, cached derivations of it
// (event sets, fatal timestamps, fatal inter-arrival gaps). One Prepared
// per training pass means the expensive BuildEventSets scan happens once
// even when several learners (or several Apriori configurations) ask for
// it. The learners of a pass run one after another, so the caches take no
// lock.
type Prepared struct {
	// Events is the raw training stream; read-only.
	Events []preprocess.TaggedEvent

	// SetsFor, GapsFor and TimesFor, when non-nil, override the batch
	// event-set scan and fatal-gap / fatal-time extraction: the
	// incremental maintainer (internal/learner/incr) serves its window
	// state here. They must return exactly what BuildEventSets(Events, p,
	// maxItems), FatalGaps(Events) and FatalTimes(Events) would.
	SetsFor  func(windowMs int64, maxItems int) []EventSet
	GapsFor  func() []float64
	TimesFor func() []int64

	// Itemsets and FailureRuns, when non-nil, offer maintained sufficient
	// statistics to the learners that can mine from counts instead of
	// rescanning the stream. Each learner checks the CanServe guard and
	// falls back to its batch pass on a mismatch, so installing these is
	// always safe.
	Itemsets    ItemsetCounts
	FailureRuns FailureRunCounts

	// Replay, when non-nil, is the reviser's replay state carried from
	// the previous pass of the same training chain (a *reviser.Carry; an
	// interface here because the reviser imports this package). Whoever
	// keeps the statistics above across passes installs it; only the
	// reviser reads or writes it, one pass at a time in pass order. A view
	// without it is revised by a full replay.
	Replay any

	sets    map[setsKey][]EventSet
	gaps    []float64
	gapsOK  bool
	times   []int64
	timesOK bool
}

type setsKey struct {
	windowMs int64
	maxItems int
}

// Prepare wraps a training stream for the learners.
func Prepare(events []preprocess.TaggedEvent) *Prepared {
	return &Prepared{Events: events}
}

// EventSets returns the association-rule transactions for the stream,
// building them on first use and caching per (window, maxItems). The
// returned slice is shared: callers must not mutate it.
func (tr *Prepared) EventSets(p Params, maxItems int) []EventSet {
	key := setsKey{windowMs: p.Window(), maxItems: maxItems}
	if sets, ok := tr.sets[key]; ok {
		return sets
	}
	var sets []EventSet
	if tr.SetsFor != nil {
		sets = tr.SetsFor(key.windowMs, maxItems)
	} else {
		sets = BuildEventSets(tr.Events, p, maxItems)
	}
	if tr.sets == nil {
		tr.sets = make(map[setsKey][]EventSet, 2)
	}
	tr.sets[key] = sets
	return sets
}

// FatalTimes returns the fatal timestamps of the stream (cached).
func (tr *Prepared) FatalTimes() []int64 {
	if !tr.timesOK {
		if tr.TimesFor != nil {
			tr.times = tr.TimesFor()
		} else {
			tr.times = FatalTimes(tr.Events)
		}
		tr.timesOK = true
	}
	return tr.times
}

// FatalGaps returns the fatal inter-arrival gaps of the stream (cached).
// The returned slice is shared: callers must not mutate it.
func (tr *Prepared) FatalGaps() []float64 {
	if !tr.gapsOK {
		if tr.GapsFor != nil {
			tr.gaps = tr.GapsFor()
		} else {
			tr.gaps = FatalGaps(tr.Events)
		}
		tr.gapsOK = true
	}
	return tr.gaps
}

// EventSetCache maintains BuildEventSets output incrementally across the
// sliding training windows of a retraining sequence. Consecutive windows
// (26 weeks sliding by 4) overlap by ~85%, and an event set depends only
// on its fatal event's W_P-sized lookback, so almost every set of the
// previous window is byte-identical in the next one. The cache rebuilds
// only the boundary sets — fatals within W_P of the new window start,
// whose lookback was truncated differently — and the newly-arrived tail.
//
// Results are exactly BuildEventSets(events[from:to]) by construction:
// a retained set's lookback lies fully inside both the old and the new
// window, so the serial builder would produce the identical set.
type EventSetCache struct {
	mu      sync.Mutex
	entries map[setsKey]cacheEntry
}

type cacheEntry struct {
	from, to int64 // the [from, to) time range the sets were built for
	sets     []EventSet
}

// NewEventSetCache returns an empty cache.
func NewEventSetCache() *EventSetCache {
	return &EventSetCache{entries: make(map[setsKey]cacheEntry, 2)}
}

// SetsDelta describes how one window advance changed the cached event
// sets: Removed left the window (expired, or a boundary set whose
// truncated lookback changed its items), Added entered it. Applying the
// delta to the previous window's multiset yields the new one exactly —
// this is what keeps incremental Apriori counts in sync. Rebuild marks a
// from-scratch build (no usable overlap); Removed is then empty and Added
// holds the full window.
type SetsDelta struct {
	Removed []EventSet
	Added   []EventSet
	Rebuild bool
}

// Advance returns the event sets of the stream slice covering [from, to)
// — equal to BuildEventSets over that slice — plus the exact delta
// against the previous window. events must be the same time-sorted
// stream across calls; a window start or end moving backwards rebuilds
// from scratch. A window sliding forward evicts only the expired prefix
// and rebuilds only the boundary region (fatals within windowMs of the
// new start, whose lookback truncation may have changed their items) —
// sets in the untouched middle are reused verbatim and never appear in
// the delta, so a slide-by-one advance reports a delta of a handful of
// sets, not a whole-window invalidation.
func (c *EventSetCache) Advance(events []preprocess.TaggedEvent, from, to, windowMs int64, maxItems int) ([]EventSet, SetsDelta) {
	idx := func(t int64) int {
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
	}
	key := setsKey{windowMs: windowMs, maxItems: maxItems}
	lo, hi := idx(from), idx(to)

	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if !ok || from < ent.from || to < ent.to {
		sets := buildEventSetsRange(events, lo, lo, hi, windowMs, maxItems)
		c.entries[key] = cacheEntry{from: from, to: to, sets: sets}
		return sets, SetsDelta{Added: sets, Rebuild: true}
	}

	// The slide path works in place on the cached slice, so an advance
	// costs O(expired + boundary + appended), never O(window): the
	// expired prefix is cut off (the sets are time-ordered), the boundary
	// region is patched where it sits, and the tail is appended. The
	// returned slice is therefore only valid until the next Advance —
	// callers needing the previous window across calls must copy it.
	var delta SetsDelta
	live := ent.sets
	if from != ent.from {
		// Expired prefix: eviction is a binary search and a slice cut.
		cut := sort.Search(len(live), func(i int) bool { return live[i].Time >= from })
		delta.Removed = append(delta.Removed, live[:cut]...)
		live = live[cut:]
		// headEnd is the first timestamp whose lookback cannot cross the
		// new window start: sets at or after it are start-independent.
		headEnd := from + windowMs
		if headEnd > to {
			headEnd = to
		}
		h := sort.Search(len(live), func(i int) bool { return live[i].Time >= headEnd })
		newHead := buildEventSetsRange(events, lo, lo, idx(headEnd), windowMs, maxItems)
		diffSets(live[:h], newHead, &delta)
		if len(newHead) == h {
			// Same fatal count at the boundary (the usual case: lookback
			// truncation changes items, not which sets exist): overwrite.
			copy(live, newHead)
		} else {
			// Set count changed at the boundary: splice into a fresh
			// slice. Rare, so the O(window) copy does not matter.
			merged := make([]EventSet, 0, len(newHead)+len(live)-h)
			merged = append(merged, newHead...)
			live = append(merged, live[h:]...)
		}
	}
	tailStart := ent.to
	if ts := from + windowMs; tailStart < ts && from != ent.from {
		// The head rebuild above already covered [from, from+windowMs).
		tailStart = ts
	}
	if tailStart > to {
		tailStart = to
	}
	if tailStart < to {
		tail := buildEventSetsRange(events, lo, idx(tailStart), hi, windowMs, maxItems)
		live = append(live, tail...)
		delta.Added = append(delta.Added, tail...)
	}
	c.entries[key] = cacheEntry{from: from, to: to, sets: live}
	return live, delta
}

// diffSets computes the multiset delta between the old and the rebuilt
// boundary region. Both slices are time-ordered projections of the same
// fatal sequence, so a two-pointer walk pairs unchanged sets; anything
// unpaired is removed/added.
func diffSets(old, new []EventSet, delta *SetsDelta) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		o, n := &old[i], &new[j]
		if o.Time == n.Time && o.Target == n.Target && equalItems(o.Items, n.Items) {
			i, j = i+1, j+1
			continue
		}
		if o.Time <= n.Time {
			delta.Removed = append(delta.Removed, *o)
			i++
		} else {
			delta.Added = append(delta.Added, *n)
			j++
		}
	}
	delta.Removed = append(delta.Removed, old[i:]...)
	delta.Added = append(delta.Added, new[j:]...)
}

func equalItems(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Seed installs a known-good window into the cache — snapshot restore
// hands back the sets it persisted so the first post-recovery Advance is
// a delta, not a rebuild. The sets must be exactly BuildEventSets output
// for [from, to) under (windowMs, maxItems).
func (c *EventSetCache) Seed(windowMs int64, maxItems int, from, to int64, sets []EventSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[setsKey{windowMs: windowMs, maxItems: maxItems}] =
		cacheEntry{from: from, to: to, sets: sets}
}
