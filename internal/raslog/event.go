// Package raslog defines the RAS (Reliability, Availability and
// Serviceability) event model used throughout the framework: the eight
// event attributes recorded by the Blue Gene/L logging facility (Table 1 of
// the paper), severity levels, facilities, in-memory event collections, and
// a line-oriented text codec for reading and writing logs.
package raslog

import (
	"fmt"
	"time"
)

// Severity is the SEVERITY attribute of a RAS event. The declared order is
// the increasing order of severity used by the logging facility.
type Severity int8

// Severity levels, in increasing order. FATAL and FAILURE events usually
// lead to system or application crashes; the framework's job is to predict
// them.
const (
	Info Severity = iota
	Warning
	Severe
	Error
	Fatal
	Failure
	NumSeverities
)

var severityNames = [NumSeverities]string{
	"INFO", "WARNING", "SEVERE", "ERROR", "FATAL", "FAILURE",
}

// String returns the log-file spelling of the severity.
func (s Severity) String() string {
	if s < 0 || s >= NumSeverities {
		return fmt.Sprintf("SEVERITY(%d)", int(s))
	}
	return severityNames[s]
}

// Valid reports whether s is one of the defined levels.
func (s Severity) Valid() bool { return s >= 0 && s < NumSeverities }

// IsFatal reports whether the severity level marks a fatal event
// (FATAL or FAILURE). Note that the *recorded* severity is not always
// trustworthy — see preprocess.Categorizer, which applies the curated
// fatal list.
func (s Severity) IsFatal() bool { return s == Fatal || s == Failure }

// ParseSeverity parses a log-file severity spelling.
func ParseSeverity(s string) (Severity, error) {
	for i, name := range severityNames {
		if s == name {
			return Severity(i), nil
		}
	}
	return 0, fmt.Errorf("raslog: unknown severity %q", s)
}

// Facility is the FACILITY attribute: the service or hardware component
// experiencing the event. The ten values are the high-level event
// categories of Table 3.
type Facility int8

// The ten high-level Blue Gene/L facilities (Table 3 of the paper).
const (
	App Facility = iota
	BGLMaster
	CMCS
	Discovery
	Hardware
	Kernel
	LinkCard
	MMCS
	Monitor
	ServNet
	NumFacilities
)

var facilityNames = [NumFacilities]string{
	"APP", "BGLMASTER", "CMCS", "DISCOVERY", "HARDWARE",
	"KERNEL", "LINKCARD", "MMCS", "MONITOR", "SERV_NET",
}

// String returns the log-file spelling of the facility.
func (f Facility) String() string {
	if f < 0 || f >= NumFacilities {
		return fmt.Sprintf("FACILITY(%d)", int(f))
	}
	return facilityNames[f]
}

// Valid reports whether f is one of the defined facilities.
func (f Facility) Valid() bool { return f >= 0 && f < NumFacilities }

// ParseFacility parses a log-file facility spelling.
func ParseFacility(s string) (Facility, error) {
	for i, name := range facilityNames {
		if s == name {
			return Facility(i), nil
		}
	}
	return 0, fmt.Errorf("raslog: unknown facility %q", s)
}

// Facilities returns all facilities in declaration order.
func Facilities() []Facility {
	fs := make([]Facility, NumFacilities)
	for i := range fs {
		fs[i] = Facility(i)
	}
	return fs
}

// Event is one RAS log record with the eight attributes of Table 1.
//
// Timestamps are milliseconds since the Unix epoch: the logging mechanism
// works at sub-second granularity, while the *recorded* event time in the
// production logs is in seconds — the text codec therefore truncates to
// seconds on write, which is what produces the duplicate same-timestamp
// entries the filter must coalesce.
//
// LocHint and EntHint are the process vocabulary's Syms for Location and
// Entry as the event's maker stamped them (see Sym). They are hints, not
// attributes: read them through Loc and Ent, which check them against
// the fields, so a zero, foreign or stale hint costs a lookup but never
// changes a result. They are never persisted.
type Event struct {
	RecordID int64    // sequence number
	Type     string   // mechanism through which the event is recorded
	Time     int64    // milliseconds since the Unix epoch
	JobID    int64    // job that detected the event (0 = none)
	Location string   // chip / node card / service card / link card
	Entry    string   // short description of the event
	LocHint  Sym      `json:"-"`
	EntHint  Sym      `json:"-"`
	Facility Facility // component experiencing the event
	Severity Severity // severity level
}

// Loc returns the Sym of e.Location: the hint when it names the field,
// which for an interned Location costs a length and pointer compare, and
// otherwise the vocabulary's lookup.
func (e *Event) Loc() Sym { return vocab.resolve(e.LocHint, e.Location) }

// Ent returns the Sym of e.Entry, as Loc does for Location.
func (e *Event) Ent() Sym { return vocab.resolve(e.EntHint, e.Entry) }

// Stamp replaces e's Type, Location and Entry with the process
// vocabulary's copies and sets the hints, for events made by decoding
// something other than the text codec (a snapshot's JSON) or by hand.
func (e *Event) Stamp() {
	e.Type, _ = vocab.intern(e.Type)
	e.Location, e.LocHint = vocab.intern(e.Location)
	e.Entry, e.EntHint = vocab.intern(e.Entry)
}

// Seconds returns the event time in whole seconds since the epoch, the
// granularity of the recorded log.
func (e Event) Seconds() int64 { return e.Time / 1000 }

// TimeUTC returns the event time as a time.Time in UTC.
func (e Event) TimeUTC() time.Time {
	return time.UnixMilli(e.Time).UTC()
}

// String formats the event compactly for debugging.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s/%s job=%d loc=%s %q",
		e.RecordID, e.TimeUTC().Format("2006-01-02T15:04:05"),
		e.Facility, e.Severity, e.JobID, e.Location, e.Entry)
}

// MillisPerWeek is the number of milliseconds in one week, the unit in
// which the paper reports its time series.
const MillisPerWeek = 7 * 24 * 3600 * 1000
