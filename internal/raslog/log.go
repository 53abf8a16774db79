package raslog

import (
	"fmt"
	"sort"
)

// Log is an in-memory event collection ordered by time. It corresponds to
// one system's RAS log (or a window of it). The zero value is an empty log.
type Log struct {
	Name   string // system name, e.g. "ANL-BGL"
	Events []Event
}

// NewLog creates a named, empty log with the given capacity hint.
func NewLog(name string, capacity int) *Log {
	return &Log{Name: name, Events: make([]Event, 0, capacity)}
}

// Append adds an event to the end of the log. Callers appending
// out-of-order events must call SortByTime before using window queries.
func (l *Log) Append(e Event) { l.Events = append(l.Events, e) }

// Len returns the number of events.
func (l *Log) Len() int { return len(l.Events) }

// SortByTime stably sorts events by timestamp (then record ID), the order
// required by the window and week queries.
func (l *Log) SortByTime() {
	sort.SliceStable(l.Events, func(i, j int) bool {
		if l.Events[i].Time != l.Events[j].Time {
			return l.Events[i].Time < l.Events[j].Time
		}
		return l.Events[i].RecordID < l.Events[j].RecordID
	})
}

// Sorted reports whether the log is in nondecreasing time order.
func (l *Log) Sorted() bool {
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Time < l.Events[i-1].Time {
			return false
		}
	}
	return true
}

// Start returns the timestamp of the first event, or 0 for an empty log.
// The log must be sorted.
func (l *Log) Start() int64 {
	if len(l.Events) == 0 {
		return 0
	}
	return l.Events[0].Time
}

// End returns the timestamp of the last event, or 0 for an empty log.
// The log must be sorted.
func (l *Log) End() int64 {
	if len(l.Events) == 0 {
		return 0
	}
	return l.Events[len(l.Events)-1].Time
}

// Weeks returns the number of (whole or partial) weeks the log spans.
func (l *Log) Weeks() int {
	if len(l.Events) == 0 {
		return 0
	}
	span := l.End() - l.Start()
	return int(span/MillisPerWeek) + 1
}

// Window returns the subslice of events with from <= Time < to.
// The log must be sorted. The returned slice shares storage with the log.
func (l *Log) Window(from, to int64) []Event {
	lo := sort.Search(len(l.Events), func(i int) bool { return l.Events[i].Time >= from })
	hi := sort.Search(len(l.Events), func(i int) bool { return l.Events[i].Time >= to })
	return l.Events[lo:hi]
}

// Slice returns a new Log wrapping the events in [from, to). The events
// slice shares storage with the receiver.
func (l *Log) Slice(from, to int64) *Log {
	return &Log{Name: l.Name, Events: l.Window(from, to)}
}

// WeekSlice returns the events of zero-based week w (relative to log start).
func (l *Log) WeekSlice(w int) []Event {
	start := l.Start() + int64(w)*MillisPerWeek
	return l.Window(start, start+MillisPerWeek)
}

// CountByFacility tallies events per facility.
func (l *Log) CountByFacility() map[Facility]int {
	m := make(map[Facility]int, int(NumFacilities))
	for _, e := range l.Events {
		m[e.Facility]++
	}
	return m
}

// Validate checks internal consistency: valid enums, nondecreasing record
// IDs are NOT required (filters renumber), but timestamps must be sorted.
func (l *Log) Validate() error {
	if !l.Sorted() {
		return fmt.Errorf("raslog: log %q is not time-sorted", l.Name)
	}
	for i, e := range l.Events {
		if !e.Severity.Valid() {
			return fmt.Errorf("raslog: event %d has invalid severity %d", i, e.Severity)
		}
		if !e.Facility.Valid() {
			return fmt.Errorf("raslog: event %d has invalid facility %d", i, e.Facility)
		}
	}
	return nil
}

// Clone returns a deep copy of the log.
func (l *Log) Clone() *Log {
	return &Log{Name: l.Name, Events: append([]Event(nil), l.Events...)}
}
