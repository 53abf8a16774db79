package main

// The harness-side reference every daemon counter is reconciled
// against: a model of the sequencer's release rule in front of the real
// preprocess stages (internal/preprocess's public TemporalStage,
// Categorizer and SpatialStage). Fed the acked requests in dispatch
// order, it says exactly how many events the daemon must have
// sequenced, late-dropped, still hold, and kept after each filter.

import (
	"container/heap"

	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// reorderLimit is stream.Config's default ReorderLimit, which cmd/serve
// has no flag for. The workloads are sized so it is never reached.
const reorderLimit = 4096

type refCounts struct {
	Ingested, Sequenced, LateDropped, Overflow int64
	AfterTemporal, Processed, Fatals           int64
}

func (a *refCounts) add(b refCounts) {
	a.Ingested += b.Ingested
	a.Sequenced += b.Sequenced
	a.LateDropped += b.LateDropped
	a.Overflow += b.Overflow
	a.AfterTemporal += b.AfterTemporal
	a.Processed += b.Processed
	a.Fatals += b.Fatals
}

type heldEvent struct {
	e       raslog.Event
	arrival uint64
}

type heldHeap []heldEvent

func (h heldHeap) Len() int { return len(h) }
func (h heldHeap) Less(i, j int) bool {
	if h[i].e.Time != h[j].e.Time {
		return h[i].e.Time < h[j].e.Time
	}
	return h[i].arrival < h[j].arrival
}
func (h heldHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heldHeap) Push(x any)   { *h = append(*h, x.(heldEvent)) }
func (h *heldHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refPipe is one tenant's reference pipeline.
type refPipe struct {
	tolMs       int64
	held        heldHeap
	arrival     uint64
	maxSeen     int64
	lastEmitted int64
	maxHeld     int

	temporal *preprocess.TemporalStage
	spatial  *preprocess.SpatialStage
	zer      *preprocess.Categorizer
	counts   refCounts

	// kept, when non-nil, receives every event surviving both filters
	// (the traced replay trains and predicts on them).
	kept func(preprocess.TaggedEvent)
}

func newRefPipe(reorderSec int64) *refPipe {
	f := preprocess.Filter{Threshold: 300} // cmd/serve's -filter default
	return &refPipe{
		tolMs:       reorderSec * 1000,
		maxSeen:     -1 << 62,
		lastEmitted: -1 << 62,
		temporal:    preprocess.NewTemporalStage(f),
		spatial:     preprocess.NewSpatialStage(f),
		zer:         preprocess.NewCategorizer(preprocess.NewCatalog()),
	}
}

// pushBatch admits one acked request: the whole batch enters the buffer,
// then everything older than the newest time minus the tolerance is
// released in (time, arrival) order — the rule in stream.sequencer. It
// returns the released events in sequence order, valid until the next
// call.
func (r *refPipe) pushBatch(events []raslog.Event, released []raslog.Event) []raslog.Event {
	released = released[:0]
	r.counts.Ingested += int64(len(events))
	for _, e := range events {
		if e.Time > r.maxSeen {
			r.maxSeen = e.Time
		}
		heap.Push(&r.held, heldEvent{e: e, arrival: r.arrival})
		r.arrival++
	}
	if len(r.held) > r.maxHeld {
		r.maxHeld = len(r.held)
	}
	for len(r.held) > 0 && (len(r.held) > reorderLimit || r.held[0].e.Time <= r.maxSeen-r.tolMs) {
		overflow := len(r.held) > reorderLimit && r.held[0].e.Time > r.maxSeen-r.tolMs
		e := heap.Pop(&r.held).(heldEvent).e
		if e.Time < r.lastEmitted {
			r.counts.LateDropped++
			continue
		}
		if overflow {
			r.counts.Overflow++
		}
		r.lastEmitted = e.Time
		r.counts.Sequenced++
		released = append(released, e)
	}
	return released
}

// filter runs released events through the real preprocess stages.
func (r *refPipe) filter(released []raslog.Event) {
	for _, e := range released {
		if !r.temporal.Observe(e) {
			continue
		}
		r.counts.AfterTemporal++
		class, fatal := r.zer.Categorize(e)
		if !r.spatial.Observe(e) {
			continue
		}
		r.counts.Processed++
		if fatal {
			r.counts.Fatals++
		}
		if r.kept != nil {
			r.kept(preprocess.TaggedEvent{Event: e, Class: class, Fatal: fatal})
		}
	}
}

// reference holds one refPipe per tenant and a cursor per lane so the
// acked prefix of each lane can be fed incrementally, phase by phase.
type reference struct {
	pipes   []*refPipe
	scratch []raslog.Event
}

func newReference(w workload) *reference {
	ref := &reference{pipes: make([]*refPipe, w.Tenants)}
	for i := range ref.pipes {
		ref.pipes[i] = newRefPipe(w.Reorder)
	}
	return ref
}

func (ref *reference) feed(reqs []request) {
	for i := range reqs {
		p := ref.pipes[reqs[i].tenant]
		ref.scratch = p.pushBatch(reqs[i].events, ref.scratch)
		p.filter(ref.scratch)
	}
}

// totals sums the tenants' counters, plus how many events are held in
// reorder buffers right now and the deepest any buffer has been.
func (ref *reference) totals() (c refCounts, held int64, maxHeld int) {
	for _, p := range ref.pipes {
		c.add(p.counts)
		held += int64(len(p.held))
		maxHeld = max(maxHeld, p.maxHeld)
	}
	return c, held, maxHeld
}
