package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/raslog"
)

// reorderEvent builds a minimal event with a distinct identity per index
// so no filter stage can merge two of them.
func reorderEvent(i int, tMs int64) raslog.Event {
	return raslog.Event{
		RecordID: int64(i),
		Time:     tMs,
		Location: fmt.Sprintf("R%02d-M0", i),
		Entry:    fmt.Sprintf("entry %d", i),
	}
}

// drainOrder feeds events in the given arrival order and returns the
// RecordIDs in the order the reorder buffer released them.
func drainOrder(t *testing.T, cfg Config, events []raslog.Event) []int64 {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, &raslog.Log{Events: events})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(s.core.history))
	for i, te := range s.core.history {
		out[i] = te.RecordID
	}
	return out
}

// TestReorderEqualTimestampsKeepArrivalOrder pins the sequencer's tie
// rule: events sharing a timestamp must be released in arrival order
// (a stable sort), regardless of what else is interleaved in the buffer.
func TestReorderEqualTimestampsKeepArrivalOrder(t *testing.T) {
	cfg := Defaults()
	cfg.Filter.Threshold = 0 // keep every event: the test reads history order
	cfg.InitialTrain = 10000 * week
	cfg.ReorderWindow = time.Minute

	const T = int64(1_000_000_000_000)
	arrival := []raslog.Event{
		reorderEvent(0, T+10), // arrives first but sorts after the tied run
		reorderEvent(1, T),
		reorderEvent(2, T),
		reorderEvent(3, T),
		reorderEvent(4, T+5),
		reorderEvent(5, T),    // same timestamp again, later arrival
		reorderEvent(6, T+10), // ties with RecordID 0, later arrival
	}
	got := drainOrder(t, cfg, arrival)
	want := []int64{1, 2, 3, 5, 4, 0, 6} // time-sorted; ties by arrival
	if len(got) != len(want) {
		t.Fatalf("released %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("release order %v, want %v (equal timestamps must keep arrival order)", got, want)
		}
	}
}

// TestReorderOverflowCountsExactlyOne pins the overflow accounting: an
// event forced out early by the buffer cap increments exactly one
// counter — late_dropped when it is already behind the emitted floor,
// reorder_overflow otherwise. Never both, never neither.
func TestReorderOverflowCountsExactlyOne(t *testing.T) {
	cfg := Defaults()
	cfg.Filter.Threshold = 0
	cfg.InitialTrain = 10000 * week
	cfg.ReorderWindow = time.Minute
	cfg.ReorderLimit = 4

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const T = int64(1_000_000_000_000)
	// Five in-tolerance events overfill the limit-4 buffer: the first
	// release is forced by the cap alone, while the event is still well
	// inside the 60 s tolerance.
	feed := []raslog.Event{
		reorderEvent(0, T+1000),
		reorderEvent(1, T+2000),
		reorderEvent(2, T+3000),
		reorderEvent(3, T+4000),
		reorderEvent(4, T+5000), // forces out RecordID 0 -> overflow
		reorderEvent(5, T+6000), // forces out RecordID 1 -> overflow
		reorderEvent(6, T+500),  // behind the emitted floor: forced out as late, NOT overflow
		reorderEvent(7, T+7000), // forces out RecordID 2 -> overflow
	}
	ingestAll(t, s, &raslog.Log{Events: feed})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.ReorderOverflow != 3 {
		t.Errorf("reorder_overflow = %d, want 3", st.ReorderOverflow)
	}
	if st.LateDropped != 1 {
		t.Errorf("late_dropped = %d, want 1", st.LateDropped)
	}
	if st.Sequenced != int64(len(feed))-1 {
		t.Errorf("sequenced = %d, want %d", st.Sequenced, len(feed)-1)
	}
	// Exactly-one invariant, aggregate form: every ingested event is
	// sequenced or late-dropped; overflow releases are a subset of the
	// sequenced, not a third bucket.
	if st.Ingested != st.Sequenced+st.LateDropped {
		t.Errorf("ingested %d != sequenced %d + late_dropped %d after drain",
			st.Ingested, st.Sequenced, st.LateDropped)
	}
	if st.ReorderOverflow > st.Sequenced {
		t.Errorf("reorder_overflow %d exceeds sequenced %d: overflow releases double-counted",
			st.ReorderOverflow, st.Sequenced)
	}

	// The released stream must still be time-sorted despite the forced
	// early releases.
	var prev int64 = -1 << 62
	for i, te := range s.core.history {
		if te.Time < prev {
			t.Fatalf("history not time-sorted at %d: %d after %d", i, te.Time, prev)
		}
		prev = te.Time
	}
}

// refReorder is the reorder buffer's specification, kept as the oracle:
// an unordered slice scanned for its (time, arrival) minimum, released
// under the sequencer's original loop condition. It is the eventHeap the
// key-heap-over-slab buffer replaced, minus the heap.
type refReorder struct {
	items          []refItem
	arrival        uint64
	maxSeen, floor int64
	limit          int
	tolMs          int64
}

type refItem struct {
	e       raslog.Event
	arrival uint64
}

func (r *refReorder) push(e raslog.Event) {
	if e.Time > r.maxSeen {
		r.maxSeen = e.Time
	}
	r.items = append(r.items, refItem{e, r.arrival})
	r.arrival++
}

func (r *refReorder) min() int {
	m := 0
	for i, it := range r.items {
		if it.e.Time < r.items[m].e.Time || it.e.Time == r.items[m].e.Time && it.arrival < r.items[m].arrival {
			m = i
		}
	}
	return m
}

func (r *refReorder) release(drain bool) (ids []int64, late, overflow int64) {
	for len(r.items) > 0 {
		m := r.min()
		top := r.items[m].e
		if !drain && len(r.items) <= r.limit && top.Time > r.maxSeen-r.tolMs {
			break
		}
		forced := !drain && len(r.items) > r.limit && top.Time > r.maxSeen-r.tolMs
		r.items = append(r.items[:m], r.items[m+1:]...)
		if top.Time < r.floor {
			late++
			continue
		}
		if forced {
			overflow++
		}
		r.floor = top.Time
		ids = append(ids, top.RecordID)
	}
	return ids, late, overflow
}

// TestReorderBufMatchesReference drives the buffer and the reference with
// the same random arrival schedules — coarse timestamps so ties abound,
// jitter both inside and far beyond the tolerance so late drops happen,
// and a small cap so forced releases happen — and requires the same
// events out in the same order with the same late and overflow tallies
// after every batch and after the final drain.
func TestReorderBufMatchesReference(t *testing.T) {
	const tolMs = 50
	var sawLate, sawOverflow int64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 1 + rng.Intn(24)
		floor := int64(-1 << 62)
		if seed%4 == 0 {
			floor = 1000 // a recovered service starts above a watermark
		}
		buf := newReorderBuf(limit, tolMs, floor)
		ref := &refReorder{limit: limit, tolMs: tolMs, maxSeen: floor, floor: floor}

		now, id := int64(1000), int64(0)
		check := func(round string, drain bool) {
			got, late, overflow := buf.release(nil, drain)
			wantIDs, wantLate, wantOverflow := ref.release(drain)
			if late != wantLate || overflow != wantOverflow {
				t.Fatalf("seed %d %s: late/overflow = %d/%d, reference %d/%d", seed, round, late, overflow, wantLate, wantOverflow)
			}
			if len(got) != len(wantIDs) {
				t.Fatalf("seed %d %s: released %d events, reference %d", seed, round, len(got), len(wantIDs))
			}
			for i := range got {
				if got[i].RecordID != wantIDs[i] {
					t.Fatalf("seed %d %s: release %d is record %d, reference %d", seed, round, i, got[i].RecordID, wantIDs[i])
				}
			}
			if buf.len() != len(ref.items) {
				t.Fatalf("seed %d %s: %d events buffered, reference %d", seed, round, buf.len(), len(ref.items))
			}
			sawLate, sawOverflow = sawLate+late, sawOverflow+overflow
		}
		for round := 0; round < 60; round++ {
			for n := 1 + rng.Intn(12); n > 0; n-- {
				now += int64(rng.Intn(3)) * 10 // coarse clock: equal timestamps are common
				at := now
				switch rng.Intn(10) {
				case 0:
					at -= int64(rng.Intn(4*tolMs)) / 10 * 10 // maybe beyond the tolerance
				case 1, 2:
					at -= int64(rng.Intn(tolMs)) / 10 * 10 // displaced inside it
				}
				e := reorderEvent(int(id), at)
				id++
				buf.push(e)
				ref.push(e)
			}
			check(fmt.Sprintf("round %d", round), false)
		}
		check("drain", true)
		if buf.len() != 0 {
			t.Fatalf("seed %d: %d events left after drain", seed, buf.len())
		}
	}
	if sawLate == 0 || sawOverflow == 0 {
		t.Fatalf("schedules exercised %d late drops and %d forced releases; the test would prove nothing", sawLate, sawOverflow)
	}
	t.Logf("%d late drops, %d forced releases across the schedules", sawLate, sawOverflow)
}
