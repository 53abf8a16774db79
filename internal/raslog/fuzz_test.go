package raslog

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzScanLog holds the decode-ahead ScanLog to the serial Scanner loop on
// arbitrary bytes: the same events delivered, the same number of fn calls
// and the same error, with fn failing on its stop-th call (never for 0).
// The checked-in corpus (testdata/fuzz/FuzzScanLog) puts line counts, bad
// lines, CRLF and blank lines and stop indexes on either side of the
// 1024-event chunk boundary.
func FuzzScanLog(f *testing.F) {
	f.Add([]byte(""), uint16(0))
	f.Add([]byte(benchLine), uint16(0))
	f.Add([]byte(lfLog), uint16(2))
	f.Add([]byte(crlfNoFinalLog+"\r\n\r\n"), uint16(0))
	f.Add([]byte(lfLog+"garbage\n"+lfLog), uint16(0))
	f.Fuzz(func(t *testing.T, input []byte, stop uint16) {
		want := collect(serialScan, bytes.NewReader(input), int(stop))
		got := collect(ScanLog, bytes.NewReader(input), int(stop))
		if diff := sameResult(got, want); diff != "" {
			t.Fatal(diff)
		}
	})
}

// FuzzParseLine exercises the codec parser with arbitrary input: it must
// never panic, and every accepted line must re-serialize to a parseable
// record describing the same event.
func FuzzParseLine(f *testing.F) {
	f.Add("1|RAS|1106281621|0|R00-M0-N08-C13-U0|KERNEL|ERROR|kernel status")
	f.Add("2|RAS|0|0||APP|INFO|")
	f.Add("||||||||")
	f.Add("9223372036854775807|x|9223372036854775807|1|l|MONITOR|FAILURE|e")
	f.Add("1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|kernel status\r")
	f.Add("3|RAS|7|0|R01-M1|LINKCARD|WARNING|entry with\rinner cr")
	f.Add("\r")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseLine(line)
		if err != nil {
			return
		}
		// Round trip through the writer.
		l := &Log{Events: []Event{e}}
		var sb strings.Builder
		if _, err := WriteLog(&sb, l); err != nil {
			t.Fatalf("accepted event failed to serialize: %v", err)
		}
		back, err := ReadLog(strings.NewReader(sb.String()), "fuzz")
		if err != nil {
			t.Fatalf("serialized event failed to parse: %v\n%q", err, sb.String())
		}
		if back.Len() != 1 {
			t.Fatalf("round trip produced %d events", back.Len())
		}
		got := back.Events[0]
		if got.RecordID != e.RecordID || got.Seconds() != e.Seconds() ||
			got.JobID != e.JobID || got.Facility != e.Facility ||
			got.Severity != e.Severity {
			t.Fatalf("round trip mangled event:\n%+v\n%+v", e, got)
		}
	})
}
