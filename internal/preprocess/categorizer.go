package preprocess

import "repro/internal/raslog"

// TaggedEvent is a RAS event annotated with its catalog class and curated
// fatal flag. It is the unit of data consumed by the learners and the
// predictor: downstream code keys on Class rather than raw entry text.
type TaggedEvent struct {
	raslog.Event
	Class int  // catalog class ID (or an unknownBase-derived ID)
	Fatal bool // curated fatal flag
}

// unknownBase is the first class ID used for events whose (facility, entry)
// pair is not in the catalog. Unknown events of a facility/severity pair
// share one synthetic class so the learners can still reason about them.
const unknownBase = 1000

// Categorizer maps raw RAS events to catalog classes and applies the
// curated fatal list. It implements the "event categorizer" box of
// Figure 1. A Categorizer is safe for concurrent use.
type Categorizer struct {
	cat *Catalog
	// TrustSeverity, when true, skips the curated list and trusts the
	// recorded severity (useful to quantify the value of curation).
	TrustSeverity bool
}

// NewCategorizer returns a categorizer over the given catalog.
func NewCategorizer(cat *Catalog) *Categorizer {
	return &Categorizer{cat: cat}
}

// Catalog returns the underlying catalog.
func (z *Categorizer) Catalog() *Catalog { return z.cat }

// Categorize returns the class ID and curated fatal flag of e. Events not
// present in the catalog fall back to a synthetic per-(facility, severity)
// class and to the recorded severity's fatality.
func (z *Categorizer) Categorize(e raslog.Event) (class int, fatal bool) {
	if cl, ok := z.cat.Lookup(e.Facility, e.Ent()); ok {
		if z.TrustSeverity {
			return cl.ID, cl.Severity.IsFatal()
		}
		return cl.ID, cl.Fatal
	}
	class = unknownBase + int(e.Facility)*16 + int(e.Severity)
	return class, e.Severity.IsFatal()
}

// IsUnknown reports whether a class ID came from the unknown-event
// fallback rather than the catalog.
func IsUnknown(class int) bool { return class >= unknownBase }

// Tag categorizes every event of a (sorted) log.
func (z *Categorizer) Tag(l *raslog.Log) []TaggedEvent {
	out := make([]TaggedEvent, len(l.Events))
	for i, e := range l.Events {
		class, fatal := z.Categorize(e)
		out[i] = TaggedEvent{Event: e, Class: class, Fatal: fatal}
	}
	return out
}

// FatalCount returns the number of curated-fatal events in the tagged
// stream.
func FatalCount(events []TaggedEvent) int {
	n := 0
	for i := range events {
		if events[i].Fatal {
			n++
		}
	}
	return n
}
