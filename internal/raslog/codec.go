package raslog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text codec writes one event per line with eight pipe-separated
// fields mirroring Table 1:
//
//	RECORD_ID|EVENT_TYPE|EVENT_TIME|JOB_ID|LOCATION|FACILITY|SEVERITY|ENTRY
//
// EVENT_TIME is recorded in whole seconds — like the production logs —
// even though events carry millisecond timestamps internally. Reading a
// log back therefore loses sub-second detail, which is precisely the
// duplicate-timestamp behaviour the paper's filter contends with.

const codecFields = 8

// WriteLog writes l to w in the text format. It returns the number of
// bytes written.
func WriteLog(w io.Writer, l *Log) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	for i := range l.Events {
		e := &l.Events[i]
		written, err := fmt.Fprintf(bw, "%d|%s|%d|%d|%s|%s|%s|%s\n",
			e.RecordID, sanitize(e.Type), e.Seconds(), e.JobID,
			sanitize(e.Location), e.Facility, e.Severity, sanitize(e.Entry))
		n += int64(written)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// sanitize strips the field separator and newlines from free-text fields.
func sanitize(s string) string {
	if !strings.ContainsAny(s, "|\n\r") {
		return s
	}
	r := strings.NewReplacer("|", "/", "\n", " ", "\r", " ")
	return r.Replace(s)
}

// ReadLog reads a complete log from r. Events are returned in file order;
// the caller should SortByTime if order is not guaranteed.
func ReadLog(r io.Reader, name string) (*Log, error) {
	l := NewLog(name, 1024)
	if err := ScanLog(r, func(e Event) error {
		l.Append(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return l, nil
}

// ParseLine parses one codec line into an Event. A single trailing
// carriage return is stripped, so a raw CRLF line decodes identically to
// the same line fed through a line scanner (which strips it first) —
// otherwise the \r would silently end up inside the final Entry field
// and make the "same" event categorize differently.
func ParseLine(line string) (Event, error) {
	return ParseLineBytes([]byte(line), nil)
}

// ParseLineBytes is the zero-copy form of ParseLine: it splits the line
// in place (no intermediate field slice) and takes the string fields and
// the event's hints from the process vocabulary (through in's cache when
// in is not nil) — so a line whose vocabulary has been seen before parses
// without heap allocation. The returned event does not retain line.
func ParseLineBytes(line []byte, in *Interner) (Event, error) {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	// Split at the first codecFields-1 separators; the final field is the
	// remainder, exactly as strings.SplitN(line, "|", codecFields) counts.
	var f [codecFields][]byte
	n := 0
	for ; n < codecFields-1; n++ {
		i := bytes.IndexByte(line, '|')
		if i < 0 {
			break
		}
		f[n], line = line[:i], line[i+1:]
	}
	f[n] = line
	n++
	if n != codecFields {
		return Event{}, fmt.Errorf("want %d fields, got %d", codecFields, n)
	}
	var e Event
	var err error
	if e.RecordID, err = parseIntBytes(f[0]); err != nil {
		return Event{}, fmt.Errorf("record id: %w", err)
	}
	secs, err := parseIntBytes(f[2])
	if err != nil {
		return Event{}, fmt.Errorf("event time: %w", err)
	}
	e.Time = secs * 1000
	if e.JobID, err = parseIntBytes(f[3]); err != nil {
		return Event{}, fmt.Errorf("job id: %w", err)
	}
	if e.Facility, err = parseFacilityBytes(f[5]); err != nil {
		return Event{}, err
	}
	if e.Severity, err = parseSeverityBytes(f[6]); err != nil {
		return Event{}, err
	}
	e.Type, _ = intern(in, typeField, f[1])
	e.Location, e.LocHint = intern(in, locationField, f[4])
	e.Entry, e.EntHint = intern(in, entryField, f[7])
	return e, nil
}

// parseIntBytes decodes a decimal int64 without converting to string on
// the happy path; anything unusual (empty, overflow-length, stray bytes)
// falls back to strconv for its exact error values.
func parseIntBytes(b []byte) (int64, error) {
	// 18 digits cannot overflow int64, so the fast loop needs no bounds
	// arithmetic; longer (possibly overflowing) input takes the slow path.
	if n := len(b); n > 0 && n <= 18 {
		i := 0
		neg := false
		if b[0] == '-' || b[0] == '+' {
			neg = b[0] == '-'
			i++
		}
		if i < n {
			var v int64
			for ; i < n; i++ {
				d := b[i] - '0'
				if d > 9 {
					return strconv.ParseInt(string(b), 10, 64)
				}
				v = v*10 + int64(d)
			}
			if neg {
				v = -v
			}
			return v, nil
		}
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// parseFacilityBytes is ParseFacility without the string conversion: a
// switch on string(b) neither allocates nor walks the names one by one.
func parseFacilityBytes(b []byte) (Facility, error) {
	switch string(b) {
	case "APP":
		return App, nil
	case "BGLMASTER":
		return BGLMaster, nil
	case "CMCS":
		return CMCS, nil
	case "DISCOVERY":
		return Discovery, nil
	case "HARDWARE":
		return Hardware, nil
	case "KERNEL":
		return Kernel, nil
	case "LINKCARD":
		return LinkCard, nil
	case "MMCS":
		return MMCS, nil
	case "MONITOR":
		return Monitor, nil
	case "SERV_NET":
		return ServNet, nil
	}
	return 0, fmt.Errorf("raslog: unknown facility %q", b)
}

// parseSeverityBytes is ParseSeverity without the string conversion.
func parseSeverityBytes(b []byte) (Severity, error) {
	switch string(b) {
	case "INFO":
		return Info, nil
	case "WARNING":
		return Warning, nil
	case "SEVERE":
		return Severe, nil
	case "ERROR":
		return Error, nil
	case "FATAL":
		return Fatal, nil
	case "FAILURE":
		return Failure, nil
	}
	return 0, fmt.Errorf("raslog: unknown severity %q", b)
}

// LogSizeBytes returns the size in bytes the log would occupy in the text
// format without materializing it (used for Table 2's "Log Size" column).
func LogSizeBytes(l *Log) int64 {
	var n int64
	for i := range l.Events {
		e := &l.Events[i]
		n += int64(digits(e.RecordID) + len(e.Type) + digits(e.Seconds()) +
			digits(e.JobID) + len(e.Location) + len(e.Facility.String()) +
			len(e.Severity.String()) + len(e.Entry) + codecFields) // separators + \n
	}
	return n
}

func digits(v int64) int {
	if v == 0 {
		return 1
	}
	n := 0
	if v < 0 {
		n = 1
		v = -v
	}
	for v > 0 {
		n++
		v /= 10
	}
	return n
}
