package raslog

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

func sampleEvents() []Event {
	return []Event{
		{RecordID: 1, Type: "RAS", Time: 1_100_000_000_500, JobID: 42,
			Location: "R00-M0-N4-C2", Entry: "cache failure",
			Facility: Kernel, Severity: Fatal},
		{RecordID: 2, Type: "RAS", Time: 1_100_000_001_000, JobID: 0,
			Location: "R00-M0-S", Entry: "node card temperature error",
			Facility: Monitor, Severity: Warning},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	l := &Log{Name: "rt", Events: sampleEvents()}
	var buf bytes.Buffer
	n, err := WriteLog(&buf, l)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadLog(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("read %d events, want 2", got.Len())
	}
	// Sub-second precision is lost by design (seconds granularity).
	if got.Events[0].Time != 1_100_000_000_000 {
		t.Errorf("time = %d, want seconds-truncated", got.Events[0].Time)
	}
	e := got.Events[0]
	if e.RecordID != 1 || e.JobID != 42 || e.Location != "R00-M0-N4-C2" ||
		e.Entry != "cache failure" || e.Facility != Kernel || e.Severity != Fatal {
		t.Errorf("event mangled: %+v", e)
	}
}

func TestCodecSanitizesSeparators(t *testing.T) {
	l := &Log{Events: []Event{{Entry: "bad|entry\nline", Location: "a|b",
		Facility: App, Severity: Info}}}
	var buf bytes.Buffer
	if _, err := WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf, "x")
	if err != nil {
		t.Fatalf("sanitized log failed to parse: %v", err)
	}
	if strings.ContainsAny(got.Events[0].Entry, "|\n") {
		t.Errorf("entry still contains separators: %q", got.Events[0].Entry)
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",                        // empty handled by ReadLog skip, raw parse fails
		"1|RAS|2",                 // too few fields
		"x|RAS|1|2|l|APP|INFO|e",  // bad record id
		"1|RAS|x|2|l|APP|INFO|e",  // bad time
		"1|RAS|1|x|l|APP|INFO|e",  // bad job id
		"1|RAS|1|2|l|NOPE|INFO|e", // bad facility
		"1|RAS|1|2|l|APP|NOPE|e",  // bad severity
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

func TestReadLogSkipsBlankLines(t *testing.T) {
	in := "1|RAS|100|0|loc|APP|INFO|ok\n\n2|RAS|200|0|loc|APP|INFO|ok\n"
	l, err := ReadLog(strings.NewReader(in), "s")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Errorf("read %d events, want 2", l.Len())
	}
}

func TestReadLogReportsLineNumber(t *testing.T) {
	in := "1|RAS|100|0|loc|APP|INFO|ok\ngarbage line\n"
	_, err := ReadLog(strings.NewReader(in), "s")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %v does not name line 2", err)
	}
}

func TestLogSizeBytesMatchesActual(t *testing.T) {
	l := &Log{Events: sampleEvents()}
	var buf bytes.Buffer
	if _, err := WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	if est := LogSizeBytes(l); est != int64(buf.Len()) {
		t.Errorf("LogSizeBytes = %d, actual %d", est, buf.Len())
	}
}

func TestDigits(t *testing.T) {
	cases := map[int64]int{0: 1, 5: 1, 10: 2, 999: 3, 1000: 4, -7: 2}
	for v, want := range cases {
		if got := digits(v); got != want {
			t.Errorf("digits(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Random well-formed events survive a write/read cycle bit-for-bit
	// except for the documented second-granularity truncation.
	r := stats.NewRNG(55)
	l := NewLog("prop", 300)
	for i := 0; i < 300; i++ {
		e := Event{
			RecordID: int64(i),
			Type:     "RAS",
			Time:     r.Int63n(1_000_000_000) * 1000, // whole seconds
			JobID:    r.Int63n(1000),
			Location: Facilities()[r.Intn(int(NumFacilities))].String(),
			Entry:    "entry text with spaces and: punctuation",
			Facility: Facility(r.Intn(int(NumFacilities))),
			Severity: Severity(r.Intn(6)),
		}
		e.Stamp() // as the decoder stamps, so the compare checks its hints
		l.Append(e)
	}
	var buf bytes.Buffer
	if _, err := WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf, "prop")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("lost events: %d vs %d", back.Len(), l.Len())
	}
	for i := range l.Events {
		if back.Events[i] != l.Events[i] {
			t.Fatalf("event %d mangled:\n%v\n%v", i, l.Events[i], back.Events[i])
		}
	}
}

// splitNLine is the codec's specification written with the standard
// library: strings.SplitN into eight fields, strconv for the integers,
// ParseFacility and ParseSeverity for the enums.
func splitNLine(line string) (Event, error) {
	f := strings.SplitN(strings.TrimSuffix(line, "\r"), "|", codecFields)
	if len(f) != codecFields {
		return Event{}, fmt.Errorf("want %d fields, got %d", codecFields, len(f))
	}
	var e Event
	var err error
	if e.RecordID, err = strconv.ParseInt(f[0], 10, 64); err != nil {
		return Event{}, fmt.Errorf("record id: %w", err)
	}
	if e.Time, err = strconv.ParseInt(f[2], 10, 64); err != nil {
		return Event{}, fmt.Errorf("event time: %w", err)
	}
	e.Time *= 1000
	if e.JobID, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return Event{}, fmt.Errorf("job id: %w", err)
	}
	if e.Facility, err = ParseFacility(f[5]); err != nil {
		return Event{}, err
	}
	if e.Severity, err = ParseSeverity(f[6]); err != nil {
		return Event{}, err
	}
	e.Type, e.Location, e.Entry = f[1], f[4], f[7]
	return e, nil
}

// TestParseLineBytesMatchesSplitN holds ParseLineBytes, with and without
// an Interner, to splitNLine: the same event or the same error text.
func TestParseLineBytesMatchesSplitN(t *testing.T) {
	lines := []string{
		benchLine,
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|entry with | pipe",
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|a|b|c|",
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR",             // 7 fields
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|x|y",         // 9 fields
		"1||1106281621|0||KERNEL|ERROR|",                     // empty strings
		"|RAS|1|0|L|APP|INFO|e",                              // empty id
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|crlf\r",      // trailing CR
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|two crs\r\r", // only one stripped
		"1|RAS|1|0|L|KERNEL|INF|e",
		"1|RAS|1|0|L|KERNEL|INFOX|e",
		"1|RAS|1|0|L|kernel|INFO|e",
		"1|RAS|1|0|L|KERNE|INFO|e",
		"1|RAS|1|0|L||INFO|e",
		"1|RAS|1|0|L|APP||e",
		"x|RAS|1|2|l|APP|INFO|e",
		"1|RAS|999999999999999999999|2|l|APP|INFO|overflow",
		"1|RAS|+7|2|l|APP|INFO|plus sign",
		"-5|RAS|-3|-9|L|APP|INFO|negative numbers",
		"a|b",
		"",
		"|||||||",
	}
	for _, f := range Facilities() {
		for s := Info; s < NumSeverities; s++ {
			lines = append(lines, fmt.Sprintf("7|RAS|1|0|L|%s|%s|e", f, s))
		}
	}
	in := NewInterner()
	for _, line := range lines {
		want, werr := splitNLine(line)
		if werr == nil {
			want.Stamp() // the decoder stamps its events; the reference is hand-built
		}
		for _, withInterner := range []*Interner{nil, in} {
			got, gerr := ParseLineBytes([]byte(line), withInterner)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%q: err %v, SplitN reference err %v", line, gerr, werr)
			}
			if got != want {
				t.Fatalf("%q: got %+v, SplitN reference %+v", line, got, want)
			}
		}
	}
}

// TestInternerFieldMemo feeds one reused buffer through every interned
// field: repeated and fresh values alternate, the empty string comes and
// goes, and the Interner fills up to maxInternEntries. Every string
// returned must equal the bytes it was given, and still equal them once
// the buffer has been overwritten, and its Sym must name it.
func TestInternerFieldMemo(t *testing.T) {
	in := NewInterner()
	buf := make([]byte, 0, 32)
	var got, want string
	var id Sym
	feed := func(field int, v string) {
		buf = append(buf[:0], v...)
		if got != want {
			t.Fatalf("interned %q changed to %q with the buffer", want, got)
		}
		got, id = intern(in, field, buf)
		want = v
		if got != want || id.String() != want {
			t.Fatalf("field %d: interned %q as Sym %d (%q), want %q", field, got, id, id.String(), want)
		}
	}
	for i := 0; in.Len() < maxInternEntries; i++ {
		fresh := strconv.Itoa(i)
		for field := typeField; field < numFields; field++ {
			feed(field, fresh)
			feed(field, fresh)
			feed(field, "")
			feed(field, "")
			feed(field, fresh)
			feed(field, "same")
		}
	}
	for i := 0; i < 100; i++ { // a full cache sends fresh values to the vocabulary
		for field := typeField; field < numFields; field++ {
			feed(field, "beyond-"+strconv.Itoa(i))
			feed(field, "beyond-"+strconv.Itoa(i))
			feed(field, "")
		}
	}
	feed(typeField, "")
	if in.Len() != maxInternEntries {
		t.Fatalf("interner holds %d entries, want the cap %d", in.Len(), maxInternEntries)
	}
}
