package preprocess

import (
	"testing"
	"testing/quick"

	"repro/internal/raslog"
	"repro/internal/stats"
)

func ev(t int64, loc string, job int64, entry string) raslog.Event {
	return raslog.Event{Time: t * 1000, Location: loc, JobID: job, Entry: entry,
		Facility: raslog.Kernel, Severity: raslog.Info}
}

func logOf(events ...raslog.Event) *raslog.Log {
	l := raslog.NewLog("f", len(events))
	for i, e := range events {
		e.RecordID = int64(i)
		l.Append(e)
	}
	l.SortByTime()
	return l
}

func TestTemporalCompression(t *testing.T) {
	// Same location, job, entry within 300 s: coalesced to one.
	l := logOf(
		ev(0, "L1", 1, "x"),
		ev(100, "L1", 1, "x"),
		ev(200, "L1", 1, "x"),
		ev(1000, "L1", 1, "x"), // beyond threshold of the first kept event
	)
	out, st := Filter{Threshold: 300}.Apply(l)
	if out.Len() != 2 {
		t.Fatalf("kept %d events, want 2", out.Len())
	}
	if st.AfterTemporal != 2 || st.Input != 4 {
		t.Errorf("stats = %+v", st)
	}
	if out.Events[0].Seconds() != 0 || out.Events[1].Seconds() != 1000 {
		t.Errorf("kept wrong representatives: %v", out.Events)
	}
}

func TestTemporalKeysDistinguish(t *testing.T) {
	// Different job, different location, or different entry: all kept.
	l := logOf(
		ev(0, "L1", 1, "x"),
		ev(1, "L1", 2, "x"), // different job
		ev(2, "L2", 1, "y"), // different location AND entry (avoid spatial match)
		ev(3, "L1", 1, "z"), // different entry
	)
	out, _ := Filter{Threshold: 300}.Apply(l)
	if out.Len() != 4 {
		t.Fatalf("kept %d events, want 4 (keys must distinguish)", out.Len())
	}
}

func TestSpatialCompression(t *testing.T) {
	// Same entry and job from different locations within threshold: removed.
	l := logOf(
		ev(0, "L1", 1, "x"),
		ev(10, "L2", 1, "x"),
		ev(20, "L3", 1, "x"),
		ev(1000, "L4", 1, "x"), // outside window: kept
	)
	out, st := Filter{Threshold: 300}.Apply(l)
	if out.Len() != 2 {
		t.Fatalf("kept %d events, want 2", out.Len())
	}
	if st.AfterTemporal != 4 {
		t.Errorf("temporal stage should keep all 4, got %d", st.AfterTemporal)
	}
	if out.Events[0].Location != "L1" || out.Events[1].Location != "L4" {
		t.Errorf("kept wrong events: %v", out.Events)
	}
}

func TestSpatialDifferentJobsKept(t *testing.T) {
	l := logOf(
		ev(0, "L1", 1, "x"),
		ev(10, "L2", 2, "x"), // different job: kept
	)
	out, _ := Filter{Threshold: 300}.Apply(l)
	if out.Len() != 2 {
		t.Fatalf("kept %d events, want 2", out.Len())
	}
}

func TestZeroThresholdPassthrough(t *testing.T) {
	l := logOf(ev(0, "L1", 1, "x"), ev(0, "L1", 1, "x"))
	out, st := Filter{Threshold: 0}.Apply(l)
	if out.Len() != 2 || st.Removed() != 0 {
		t.Errorf("zero threshold modified the log: %+v", st)
	}
	// Output must be a copy, not an alias.
	out.Events[0].Entry = "mutated"
	if l.Events[0].Entry == "mutated" {
		t.Error("passthrough shares storage with input")
	}
}

func TestSlidingVsAnchoredWindows(t *testing.T) {
	// Events every 200 s with a 300 s threshold: an anchored window keeps
	// every other event; a sliding window suppresses everything after the
	// first for as long as the stream continues.
	events := make([]raslog.Event, 0, 10)
	for i := int64(0); i < 10; i++ {
		events = append(events, ev(i*200, "L1", 1, "x"))
	}
	l := logOf(events...)
	anchored, _ := Filter{Threshold: 300}.Apply(l)
	sliding, _ := Filter{Threshold: 300, Sliding: true}.Apply(l)
	if anchored.Len() != 5 {
		t.Errorf("anchored kept %d, want 5", anchored.Len())
	}
	if sliding.Len() != 1 {
		t.Errorf("sliding kept %d, want 1", sliding.Len())
	}
}

func TestFilterMonotoneInThreshold(t *testing.T) {
	// Property: a larger threshold never keeps more events.
	r := stats.NewRNG(77)
	events := make([]raslog.Event, 500)
	locs := []string{"L1", "L2", "L3"}
	entries := []string{"a", "b"}
	for i := range events {
		events[i] = ev(r.Int63n(5000), locs[r.Intn(3)], r.Int63n(3), entries[r.Intn(2)])
	}
	l := logOf(events...)
	prev := l.Len() + 1
	for _, th := range []int64{0, 10, 60, 120, 200, 300, 400} {
		out, _ := Filter{Threshold: th}.Apply(l)
		if out.Len() > prev {
			t.Fatalf("threshold %d kept %d > previous %d", th, out.Len(), prev)
		}
		prev = out.Len()
	}
}

func TestFilterOutputSortedAndSubset(t *testing.T) {
	r := stats.NewRNG(78)
	f := func(seed uint32) bool {
		rr := stats.NewRNG(uint64(seed) ^ r.Uint64())
		events := make([]raslog.Event, 100)
		for i := range events {
			events[i] = ev(rr.Int63n(2000), "L", rr.Int63n(2), "x")
		}
		l := logOf(events...)
		out, st := Filter{Threshold: 100}.Apply(l)
		if !out.Sorted() {
			return false
		}
		if st.AfterSpatial != out.Len() || st.AfterTemporal < out.Len() || st.Input < st.AfterTemporal {
			return false
		}
		// Every kept event exists in the input.
		inSet := make(map[int64]bool)
		for _, e := range l.Events {
			inSet[e.RecordID] = true
		}
		for _, e := range out.Events {
			if !inSet[e.RecordID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdSweepShape(t *testing.T) {
	l := logOf(
		ev(0, "L1", 1, "x"), ev(5, "L1", 1, "x"), ev(500, "L1", 1, "x"),
	)
	ths := []int64{0, 10, 60}
	rows := ThresholdSweep(l, ths)
	if len(rows) != int(raslog.NumFacilities) {
		t.Fatalf("rows = %d", len(rows))
	}
	k := rows[raslog.Kernel]
	if k[0] != 3 || k[1] != 2 || k[2] != 2 {
		t.Errorf("kernel row = %v, want [3 2 2]", k)
	}
}

func TestCompressionRate(t *testing.T) {
	st := FilterStats{Input: 100, AfterTemporal: 30, AfterSpatial: 20}
	if st.Removed() != 80 {
		t.Errorf("Removed = %d", st.Removed())
	}
	if got := st.CompressionRate(); got != 0.8 {
		t.Errorf("CompressionRate = %g", got)
	}
	if (FilterStats{}).CompressionRate() != 0 {
		t.Error("empty CompressionRate not 0")
	}
}

func TestFilterIdempotent(t *testing.T) {
	// Anchored-window compression leaves survivors more than a threshold
	// apart per key, so a second pass must be a no-op — the predict tool
	// relies on this when fed an already-filtered log.
	r := stats.NewRNG(123)
	locs := []string{"L1", "L2", "L3", "L4"}
	entries := []string{"a", "b", "c"}
	events := make([]raslog.Event, 800)
	for i := range events {
		events[i] = ev(r.Int63n(20_000), locs[r.Intn(4)], r.Int63n(3), entries[r.Intn(3)])
	}
	l := logOf(events...)
	once, _ := Filter{Threshold: 300}.Apply(l)
	twice, st := Filter{Threshold: 300}.Apply(once)
	if st.Removed() != 0 {
		t.Fatalf("second pass removed %d events", st.Removed())
	}
	if twice.Len() != once.Len() {
		t.Fatalf("idempotence broken: %d vs %d", twice.Len(), once.Len())
	}
}

func TestFilterSurvivorSpacingProperty(t *testing.T) {
	// Per temporal key, consecutive survivors are > threshold apart.
	r := stats.NewRNG(321)
	events := make([]raslog.Event, 600)
	for i := range events {
		events[i] = ev(r.Int63n(10_000), "L1", 1, "x")
	}
	l := logOf(events...)
	out, _ := Filter{Threshold: 120}.Apply(l)
	var last int64 = -1 << 62
	for _, e := range out.Events {
		if e.Time-last <= 120_000 && last > -1<<61 {
			t.Fatalf("survivors %d ms apart (<= threshold)", e.Time-last)
		}
		last = e.Time
	}
}
