package preprocess

import (
	"reflect"
	"testing"

	"repro/internal/raslog"
)

// TestStageObserveAllocBudget pins the filter stages' steady-state cost:
// for stamped events, Observe must not allocate (the Sym-keyed tables
// update in place; map growth is amortized away by the warm-up pass).
func TestStageObserveAllocBudget(t *testing.T) {
	f := Filter{Threshold: 300}
	temporal := NewTemporalStage(f)
	spatial := NewSpatialStage(f)
	events := []raslog.Event{
		{Time: 0, JobID: 7, Location: "R01-M0-N4", Entry: "ddr error"},
		{Time: 0, JobID: 7, Location: "R01-M0-N5", Entry: "ddr error"},
		{Time: 0, JobID: 3, Location: "R02-M1-N0", Entry: "link fault"},
	}
	for i := range events { // warm: stamp as a decoder would, insert the keys
		events[i].Stamp()
		temporal.Observe(events[i])
		spatial.Observe(events[i])
	}
	now := int64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := range events {
			e := events[i]
			e.Time = now
			temporal.Observe(e)
			spatial.Observe(e)
		}
		now += 1000
	})
	if allocs != 0 {
		t.Fatalf("stage Observe allocates %.1f times per round, want 0", allocs)
	}
}

// TestStageExportRoundTripInterned pins that Export resolves Syms back to
// the original strings and Restore interns them again, across a fresh
// stage (the recovery path: Syms are never persisted).
func TestStageExportRoundTripInterned(t *testing.T) {
	f := Filter{Threshold: 300, Sliding: true}
	temporal := NewTemporalStage(f)
	spatial := NewSpatialStage(f)
	events := []raslog.Event{
		{Time: 10, JobID: 7, Location: "R01-M0-N4", Entry: "ddr error"},
		{Time: 20, JobID: 7, Location: "R01-M0-N5", Entry: "ddr error"},
		{Time: 30, JobID: 3, Location: "R02-M1-N0", Entry: "link fault"},
		{Time: 400000, JobID: 3, Location: "R02-M1-N0", Entry: "link fault"},
	}
	for _, e := range events {
		if temporal.Observe(e) {
			spatial.Observe(e)
		}
	}
	t2 := NewTemporalStage(f)
	t2.Restore(temporal.Export())
	s2 := NewSpatialStage(f)
	s2.Restore(spatial.Export())

	probe := raslog.Event{Time: 400100, JobID: 3, Location: "R02-M1-N1", Entry: "link fault"}
	if got, want := t2.Observe(probe), temporal.Observe(probe); got != want {
		t.Fatalf("restored temporal stage decided %v, original %v", got, want)
	}
	if got, want := s2.Observe(probe), spatial.Observe(probe); got != want {
		t.Fatalf("restored spatial stage decided %v, original %v", got, want)
	}
}

// TestFilterKeysHaveNoPadding: a map key with no padding bytes is hashed
// as plain memory (16 bytes: the runtime's memhash128); one with padding
// gets a generated hash that walks its fields, which cost the spatial
// stage's lookups about a fifth.
func TestFilterKeysHaveNoPadding(t *testing.T) {
	for _, k := range []any{tempIKey{}, spatIKey{}} {
		typ := reflect.TypeOf(k)
		var sum uintptr
		for i := 0; i < typ.NumField(); i++ {
			sum += typ.Field(i).Type.Size()
		}
		if typ.Size() != sum {
			t.Errorf("%s is %d bytes, its fields %d: reorder or widen them", typ.Name(), typ.Size(), sum)
		}
	}
}
