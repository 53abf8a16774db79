package preprocess

import (
	"testing"

	"repro/internal/raslog"
)

func TestCategorizeKnownEvent(t *testing.T) {
	z := NewCategorizer(NewCatalog())
	e := raslog.Event{Facility: raslog.Kernel, Severity: raslog.Fatal,
		Entry: "cache failure"}
	class, fatal := z.Categorize(e)
	if IsUnknown(class) {
		t.Fatal("known entry categorized as unknown")
	}
	if !fatal {
		t.Error("cache failure not fatal")
	}
	cl := z.Catalog().Class(class)
	if cl.Entry != "cache failure" {
		t.Errorf("mapped to %q", cl.Entry)
	}
}

func TestCategorizeMisleadingEvent(t *testing.T) {
	z := NewCategorizer(NewCatalog())
	// Find a misleading class: recorded FATAL but curated non-fatal.
	var m Class
	for _, cl := range z.Catalog().Classes() {
		if cl.Misleading {
			m = cl
			break
		}
	}
	e := raslog.Event{Facility: m.Facility, Severity: m.Severity, Entry: m.Entry}
	if _, fatal := z.Categorize(e); fatal {
		t.Error("curated list did not demote misleading event")
	}
	// With TrustSeverity the recorded severity wins.
	z.TrustSeverity = true
	if _, fatal := z.Categorize(e); !fatal {
		t.Error("TrustSeverity did not honor recorded FATAL")
	}
}

func TestCategorizeUnknownEvent(t *testing.T) {
	z := NewCategorizer(NewCatalog())
	e := raslog.Event{Facility: raslog.Kernel, Severity: raslog.Failure,
		Entry: "never seen before"}
	class, fatal := z.Categorize(e)
	if !IsUnknown(class) {
		t.Error("unknown entry mapped to catalog class")
	}
	if !fatal {
		t.Error("unknown FAILURE event not treated fatal")
	}
	// Unknown events of the same facility+severity share a class.
	e2 := e
	e2.Entry = "also never seen"
	class2, _ := z.Categorize(e2)
	if class != class2 {
		t.Errorf("unknown classes differ: %d vs %d", class, class2)
	}
	// Different severity gets a different synthetic class.
	e3 := e
	e3.Severity = raslog.Info
	class3, fatal3 := z.Categorize(e3)
	if class3 == class {
		t.Error("different severities share an unknown class")
	}
	if fatal3 {
		t.Error("unknown INFO event treated fatal")
	}
}

func TestTagAndSplit(t *testing.T) {
	z := NewCategorizer(NewCatalog())
	l := raslog.NewLog("t", 3)
	l.Append(raslog.Event{Time: 1, Facility: raslog.Kernel, Severity: raslog.Fatal,
		Entry: "cpu failure"})
	l.Append(raslog.Event{Time: 2, Facility: raslog.CMCS, Severity: raslog.Info,
		Entry: "cmcs command info"})
	l.Append(raslog.Event{Time: 3, Facility: raslog.Kernel, Severity: raslog.Fatal,
		Entry: "kernel panic"})
	tagged := z.Tag(l)
	if len(tagged) != 3 {
		t.Fatalf("tagged %d events", len(tagged))
	}
	if FatalCount(tagged) != 2 {
		t.Errorf("FatalCount = %d, want 2", FatalCount(tagged))
	}
	for i, want := range []bool{true, false, true} {
		if tagged[i].Time != int64(i+1) || tagged[i].Fatal != want {
			t.Errorf("tagged[%d] = time %d fatal %v, want time %d fatal %v",
				i, tagged[i].Time, tagged[i].Fatal, i+1, want)
		}
	}
}
