package raslog

import (
	"strings"
	"testing"
)

func TestSeverityOrderAndNames(t *testing.T) {
	// The declared order is the increasing order of severity (paper §2.1).
	order := []Severity{Info, Warning, Severe, Error, Fatal, Failure}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Errorf("severity order broken at %v", order[i])
		}
	}
	names := map[Severity]string{
		Info: "INFO", Warning: "WARNING", Severe: "SEVERE",
		Error: "ERROR", Fatal: "FATAL", Failure: "FAILURE",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestSeverityIsFatal(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Severe, Error} {
		if s.IsFatal() {
			t.Errorf("%v reported fatal", s)
		}
	}
	for _, s := range []Severity{Fatal, Failure} {
		if !s.IsFatal() {
			t.Errorf("%v not reported fatal", s)
		}
	}
}

func TestParseSeverityRoundTrip(t *testing.T) {
	for s := Info; s < NumSeverities; s++ {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v err %v", s, got, err)
		}
	}
	if _, err := ParseSeverity("BOGUS"); err == nil {
		t.Error("ParseSeverity accepted garbage")
	}
}

func TestSeverityValid(t *testing.T) {
	if Severity(-1).Valid() || Severity(int(NumSeverities)).Valid() {
		t.Error("out-of-range severity reported valid")
	}
	if !Fatal.Valid() {
		t.Error("Fatal reported invalid")
	}
	if !strings.Contains(Severity(99).String(), "99") {
		t.Error("out-of-range severity String unhelpful")
	}
}

func TestFacilityNamesMatchTable3(t *testing.T) {
	want := []string{"APP", "BGLMASTER", "CMCS", "DISCOVERY", "HARDWARE",
		"KERNEL", "LINKCARD", "MMCS", "MONITOR", "SERV_NET"}
	fs := Facilities()
	if len(fs) != len(want) {
		t.Fatalf("got %d facilities, want %d", len(fs), len(want))
	}
	for i, f := range fs {
		if f.String() != want[i] {
			t.Errorf("facility %d = %q, want %q", i, f.String(), want[i])
		}
	}
}

func TestParseFacilityRoundTrip(t *testing.T) {
	for _, f := range Facilities() {
		got, err := ParseFacility(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v failed: %v %v", f, got, err)
		}
	}
	if _, err := ParseFacility("NOPE"); err == nil {
		t.Error("ParseFacility accepted garbage")
	}
	if Facility(-1).Valid() {
		t.Error("Facility(-1) valid")
	}
}

func TestEventSecondsAndUTC(t *testing.T) {
	e := Event{Time: 1234567890123}
	if e.Seconds() != 1234567890 {
		t.Errorf("Seconds = %d", e.Seconds())
	}
	if got := e.TimeUTC().Unix(); got != 1234567890 {
		t.Errorf("TimeUTC.Unix = %d", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{RecordID: 7, Time: 0, JobID: 3, Location: "R00-M0-N4-C2",
		Entry: "cache failure", Facility: Kernel, Severity: Fatal}
	s := e.String()
	for _, want := range []string{"#7", "KERNEL", "FATAL", "R00-M0-N4-C2", "cache failure"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
