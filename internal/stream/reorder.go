package stream

import "repro/internal/raslog"

// reorderKey orders one buffered event. The heap sifts these 24-byte
// keys; the 88-byte event itself sits still in the slab until release.
type reorderKey struct {
	time    int64
	arrival uint64 // tie-break so equal timestamps keep arrival order
	slot    uint32 // index of the event in reorderBuf.slab
}

// reorderBuf is the sequencer's bounded reorder buffer: a binary min-heap
// of keys ordered by (time, arrival) over a slab of events. An in-order
// arrival is the largest key, so its push is one comparison; a pop sifts
// keys only. Everything is reused once warm — push and release allocate
// nothing in steady state.
type reorderBuf struct {
	keys []reorderKey
	slab []raslog.Event
	free []uint32 // vacated slab slots
	// arrival numbers pushes; maxSeen is the newest timestamp pushed and
	// floor the timestamp of the last event released (the sorted-stream
	// floor: anything older arriving now is late).
	arrival uint64
	maxSeen int64
	floor   int64
	limit   int
	tolMs   int64
}

// newReorderBuf returns an empty buffer holding at most limit events and
// releasing an event once the newest timestamp leads it by tolMs. floor
// seeds the emitted-time floor (the recovered watermark after a restart,
// so re-fed events are neither re-released nor mistaken for late).
func newReorderBuf(limit int, tolMs, floor int64) *reorderBuf {
	return &reorderBuf{limit: limit, tolMs: tolMs, maxSeen: floor, floor: floor}
}

func (b *reorderBuf) len() int { return len(b.keys) }

func (k reorderKey) before(o reorderKey) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.arrival < o.arrival
}

func (b *reorderBuf) push(e raslog.Event) {
	if e.Time > b.maxSeen {
		b.maxSeen = e.Time
	}
	var slot uint32
	if n := len(b.free); n > 0 {
		slot, b.free = b.free[n-1], b.free[:n-1]
		b.slab[slot] = e
	} else {
		slot = uint32(len(b.slab))
		b.slab = append(b.slab, e)
	}
	k := reorderKey{time: e.Time, arrival: b.arrival, slot: slot}
	b.arrival++
	b.keys = append(b.keys, k)
	i := len(b.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(b.keys[parent]) {
			break
		}
		b.keys[i] = b.keys[parent]
		i = parent
	}
	b.keys[i] = k
}

// pop removes and returns the (time, arrival)-smallest event.
func (b *reorderBuf) pop() raslog.Event {
	top := b.keys[0]
	last := len(b.keys) - 1
	k := b.keys[last]
	b.keys = b.keys[:last]
	i := 0
	for {
		child := 2*i + 1
		if child >= last {
			break
		}
		if r := child + 1; r < last && b.keys[r].before(b.keys[child]) {
			child = r
		}
		if !b.keys[child].before(k) {
			break
		}
		b.keys[i] = b.keys[child]
		i = child
	}
	if last > 0 {
		b.keys[i] = k
	}
	e := b.slab[top.slot]
	b.slab[top.slot] = raslog.Event{} // drop the string references
	b.free = append(b.free, top.slot)
	return e
}

// release appends to dst, in (time, arrival) order, every event the
// newest timestamp has passed by the tolerance or the cap forces out;
// drain releases everything (intake closed). An event behind the emitted
// floor is dropped and counted late instead. overflow counts releases
// forced by the cap alone while still inside the tolerance, so a forced
// release increments exactly one of the two tallies.
func (b *reorderBuf) release(dst []raslog.Event, drain bool) (out []raslog.Event, late, overflow int64) {
	for len(b.keys) > 0 {
		inTol := b.keys[0].time > b.maxSeen-b.tolMs
		forced := len(b.keys) > b.limit
		if inTol && !forced && !drain {
			break
		}
		e := b.pop()
		if e.Time < b.floor {
			late++
			continue
		}
		if inTol && forced && !drain {
			overflow++
		}
		b.floor = e.Time
		dst = append(dst, e)
	}
	return dst, late, overflow
}
