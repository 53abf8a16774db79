package preprocess

import (
	"repro/internal/raslog"
)

// This file is the streaming re-formulation of the batch Filter: the same
// temporal and spatial compressions (§3.2), consuming one event at a time
// with bounded per-key state. Both compressions are single-pass and
// in-order, so feeding a time-sorted stream through TemporalStage followed
// by SpatialStage produces exactly the batch Filter.Apply output — the
// batch form is in fact implemented on top of these stages, and the
// property tests in incremental_test.go pin both against an independent
// two-pass oracle.
//
// State growth is bounded by lazy eviction: a key whose last-kept (or
// last-seen, under Sliding) timestamp has fallen more than Threshold
// behind the stream can never suppress a future event, so stale keys are
// swept periodically. Resident state is therefore proportional to the
// number of distinct (location, job, entry) keys active within one
// threshold window, not to the length of the stream.

// sweepInterval is how many observations pass between eviction sweeps.
// A sweep is O(live keys), so amortized cost per event is O(live/interval).
const sweepInterval = 8192

// TemporalStage performs streaming temporal compression at a single
// location: an event is dropped when the same (location, job, entry) key
// was kept (or, under Sliding, seen) within Threshold. Events of one
// location must all pass through the same stage instance.
type TemporalStage struct {
	thresholdMs int64
	sliding     bool
	// last keys on the events' vocabulary Syms (raslog.Sym): a
	// pointer-free struct the GC never scans.
	last       map[tempIKey]int64
	sinceSweep int
}

// tempIKey is the interned form of the temporal key
// (location, job, entry).
type tempIKey struct {
	loc   raslog.Sym
	entry raslog.Sym
	jobID int64
}

// NewTemporalStage returns a streaming temporal compressor with the
// filter's semantics. Threshold <= 0 disables compression.
func NewTemporalStage(f Filter) *TemporalStage {
	return &TemporalStage{
		thresholdMs: f.Threshold * 1000,
		sliding:     f.Sliding,
		last:        make(map[tempIKey]int64, 256),
	}
}

// Observe reports whether e survives temporal compression. Events must
// arrive in nondecreasing time order per location.
func (t *TemporalStage) Observe(e raslog.Event) bool {
	if t.thresholdMs <= 0 {
		return true
	}
	t.maybeSweep(e.Time)
	k := tempIKey{loc: e.Loc(), entry: e.Ent(), jobID: e.JobID}
	if last, seen := t.last[k]; seen && e.Time-last <= t.thresholdMs {
		if t.sliding {
			t.last[k] = e.Time
		}
		return false
	}
	t.last[k] = e.Time
	return true
}

// Len returns the number of resident keys (for stats and tests).
func (t *TemporalStage) Len() int { return len(t.last) }

func (t *TemporalStage) maybeSweep(now int64) {
	t.sinceSweep++
	if t.sinceSweep < sweepInterval {
		return
	}
	t.sinceSweep = 0
	for k, last := range t.last {
		if now-last > t.thresholdMs {
			delete(t.last, k)
		}
	}
}

// SpatialStage performs streaming spatial compression across locations:
// an event is dropped when an event with the same (job, entry) from a
// *different* location was kept (or, under Sliding, seen) within
// Threshold. Its state is global, so exactly one instance must see the
// merged, time-ordered survivor stream of the temporal stage.
type SpatialStage struct {
	thresholdMs int64
	sliding     bool
	last        map[spatIKey]spatState
	sinceSweep  int
}

// spatIKey is the interned form of the spatial key (job, entry). The
// entry Sym is widened to 64 bits so the key has no padding: the map
// then hashes its 16 bytes as plain memory, as it does tempIKey's,
// instead of calling a generated per-field hash (TestFilterKeysHaveNoPadding).
type spatIKey struct {
	jobID int64
	entry uint64 // a raslog.Sym
}

type spatState struct {
	time int64
	loc  raslog.Sym
}

// NewSpatialStage returns a streaming spatial compressor with the filter's
// semantics. Threshold <= 0 disables compression.
func NewSpatialStage(f Filter) *SpatialStage {
	return &SpatialStage{
		thresholdMs: f.Threshold * 1000,
		sliding:     f.Sliding,
		last:        make(map[spatIKey]spatState, 256),
	}
}

// Observe reports whether e survives spatial compression. Events must
// arrive in nondecreasing time order.
func (s *SpatialStage) Observe(e raslog.Event) bool {
	if s.thresholdMs <= 0 {
		return true
	}
	s.maybeSweep(e.Time)
	k := spatIKey{jobID: e.JobID, entry: uint64(e.Ent())}
	loc := e.Loc()
	if st, seen := s.last[k]; seen && e.Time-st.time <= s.thresholdMs && st.loc != loc {
		if s.sliding {
			s.last[k] = spatState{e.Time, st.loc}
		}
		return false
	}
	s.last[k] = spatState{e.Time, loc}
	return true
}

// Len returns the number of resident keys (for stats and tests).
func (s *SpatialStage) Len() int { return len(s.last) }

func (s *SpatialStage) maybeSweep(now int64) {
	s.sinceSweep++
	if s.sinceSweep < sweepInterval {
		return
	}
	s.sinceSweep = 0
	for k, st := range s.last {
		if now-st.time > s.thresholdMs {
			delete(s.last, k)
		}
	}
}

// IncrementalFilter chains the two stages into a one-event-at-a-time form
// of Filter.Apply, with running FilterStats.
type IncrementalFilter struct {
	temporal *TemporalStage
	spatial  *SpatialStage
	stats    FilterStats
}

// Incremental returns a streaming filter with f's semantics.
func (f Filter) Incremental() *IncrementalFilter {
	return &IncrementalFilter{
		temporal: NewTemporalStage(f),
		spatial:  NewSpatialStage(f),
	}
}

// Observe feeds one event (time-sorted stream) and reports whether it
// survives both compressions.
func (inc *IncrementalFilter) Observe(e raslog.Event) bool {
	inc.stats.Input++
	if !inc.temporal.Observe(e) {
		return false
	}
	inc.stats.AfterTemporal++
	if !inc.spatial.Observe(e) {
		return false
	}
	inc.stats.AfterSpatial++
	return true
}

// Stats returns the per-stage counts so far.
func (inc *IncrementalFilter) Stats() FilterStats { return inc.stats }

// ResidentKeys returns the total keys held across both stages.
func (inc *IncrementalFilter) ResidentKeys() int {
	return inc.temporal.Len() + inc.spatial.Len()
}
