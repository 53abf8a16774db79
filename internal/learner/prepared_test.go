package learner

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

func mkEv(tSec int64, class int, fatal bool) preprocess.TaggedEvent {
	return preprocess.TaggedEvent{
		Event: raslog.Event{Time: tSec * 1000}, Class: class, Fatal: fatal,
	}
}

// noisyStream builds a deterministic mixed stream: bursts of non-fatal
// classes with interleaved fatals at irregular spacing, long enough that
// sliding windows cut it at many different boundaries.
func noisyStream(seed uint64, n int) []preprocess.TaggedEvent {
	r := stats.NewRNG(seed)
	var events []preprocess.TaggedEvent
	tm := int64(0)
	for len(events) < n {
		tm += int64(5 + r.Intn(120))
		if r.Intn(7) == 0 {
			events = append(events, mkEv(tm, 90+r.Intn(4), true))
		} else {
			events = append(events, mkEv(tm, r.Intn(12), false))
		}
	}
	return events
}

func TestPreparedCachesEventSets(t *testing.T) {
	events := noisyStream(1, 400)
	tr := Prepare(events)
	p := Params{WindowSec: 300}
	a := tr.EventSets(p, 30)
	b := tr.EventSets(p, 30)
	if len(a) == 0 {
		t.Fatal("no event sets built")
	}
	if &a[0] != &b[0] {
		t.Error("second EventSets call rebuilt instead of using the cache")
	}
	c := tr.EventSets(p, 5) // different maxItems: distinct cache entry
	if len(c) > 0 && len(a) > 0 && &a[0] == &c[0] {
		t.Error("maxItems variants share a cache entry")
	}
	if got, want := tr.FatalTimes(), FatalTimes(events); !reflect.DeepEqual(got, want) {
		t.Error("FatalTimes mismatch")
	}
	if got, want := tr.FatalGaps(), FatalGaps(events); !reflect.DeepEqual(got, want) {
		t.Error("FatalGaps mismatch")
	}
}

// TestEventSetCacheMatchesBatch slides a training window forward in
// irregular steps — exactly the retraining sequence shape — and checks
// the incremental cache reproduces the batch builder byte for byte at
// every step, across window sizes and item caps.
func TestEventSetCacheMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		events := noisyStream(seed, 1500)
		last := events[len(events)-1].Time
		idx := func(tms int64) int {
			return sort.Search(len(events), func(i int) bool { return events[i].Time >= tms })
		}
		for _, windowMs := range []int64{60_000, 300_000} {
			for _, maxItems := range []int{0, 8} {
				cache := NewEventSetCache()
				p := Params{WindowSec: windowMs / 1000}
				from, to := events[0].Time, events[0].Time+last/4
				r := stats.NewRNG(seed + 1)
				for step := 0; step < 12 && to <= last; step++ {
					got, _ := cache.Advance(events, from, to, windowMs, maxItems)
					want := BuildEventSets(events[idx(from):idx(to)], p, maxItems)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d W %d maxItems %d step %d: cache diverged (%d vs %d sets)",
							seed, windowMs, maxItems, step, len(got), len(want))
					}
					// Advance like Sliding (both bounds) or Whole (to only).
					to += int64(1+r.Intn(3)) * last / 20
					if r.Intn(3) > 0 {
						from += int64(r.Intn(3)) * last / 25
					}
					if from > to {
						from = to
					}
				}
			}
		}
	}
}

// TestEventSetCacheRebuildsOnRegression pins the fallback: a window start
// moving backwards (not a retraining pattern) must still be exact.
func TestEventSetCacheRebuildsOnRegression(t *testing.T) {
	events := noisyStream(7, 600)
	idx := func(tms int64) int {
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= tms })
	}
	cache := NewEventSetCache()
	p := Params{WindowSec: 300}
	mid, end := events[300].Time, events[len(events)-1].Time+1
	cache.Advance(events, mid, end, 300_000, 0)
	got, d := cache.Advance(events, events[0].Time, end, 300_000, 0)
	if !d.Rebuild {
		t.Error("a window start moving backwards did not rebuild")
	}
	want := BuildEventSets(events[idx(events[0].Time):idx(end)], p, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regressed window diverged: %d vs %d sets", len(got), len(want))
	}
}
