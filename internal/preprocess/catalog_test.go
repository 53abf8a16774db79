package preprocess

import (
	"testing"

	"repro/internal/raslog"
)

func TestCatalogMatchesTable3(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 219 {
		t.Fatalf("catalog has %d classes, want 219", c.Len())
	}
	if got := len(c.FatalIDs()); got != 69 {
		t.Errorf("fatal classes = %d, want 69", got)
	}
	if got := c.Len() - len(c.FatalIDs()); got != 150 {
		t.Errorf("non-fatal classes = %d, want 150", got)
	}
	want := map[raslog.Facility][2]int{ // {fatal, nonfatal} per Table 3
		raslog.App:       {10, 7},
		raslog.BGLMaster: {2, 2},
		raslog.CMCS:      {0, 4},
		raslog.Discovery: {0, 24},
		raslog.Hardware:  {1, 12},
		raslog.Kernel:    {46, 90},
		raslog.LinkCard:  {1, 0},
		raslog.MMCS:      {0, 5},
		raslog.Monitor:   {9, 5},
		raslog.ServNet:   {0, 1},
	}
	for _, row := range c.CountsByFacility() {
		w := want[row.Facility]
		if row.Fatal != w[0] || row.NonFatal != w[1] {
			t.Errorf("%v: got %d/%d fatal/nonfatal, want %d/%d",
				row.Facility, row.Fatal, row.NonFatal, w[0], w[1])
		}
	}
}

func TestCatalogIDsAreDense(t *testing.T) {
	c := NewCatalog()
	for i, cl := range c.Classes() {
		if cl.ID != i {
			t.Fatalf("class %d has ID %d", i, cl.ID)
		}
		if cl.Entry == "" {
			t.Fatalf("class %d has empty entry", i)
		}
	}
}

func TestCatalogEntriesUniquePerFacility(t *testing.T) {
	c := NewCatalog()
	seen := make(map[catKey]bool)
	for _, cl := range c.Classes() {
		k := catKey{sym(cl.Entry), cl.Facility}
		if seen[k] {
			t.Errorf("duplicate entry %v %q", cl.Facility, cl.Entry)
		}
		seen[k] = true
	}
}

func TestCatalogLookup(t *testing.T) {
	c := NewCatalog()
	cl, ok := c.Lookup(raslog.Kernel, sym("uncorrectable torus error"))
	if !ok {
		t.Fatal("paper example entry missing from catalog")
	}
	if !cl.Fatal || cl.Facility != raslog.Kernel {
		t.Errorf("unexpected class %+v", cl)
	}
	if _, ok := c.Lookup(raslog.Kernel, sym("no such entry")); ok {
		t.Error("Lookup invented a class")
	}
	// Same entry under another facility must not match.
	if _, ok := c.Lookup(raslog.App, sym("uncorrectable torus error")); ok {
		t.Error("Lookup ignored facility")
	}
}

func TestMisleadingClasses(t *testing.T) {
	c := NewCatalog()
	misleading := 0
	for _, cl := range c.Classes() {
		if cl.Misleading {
			misleading++
			if cl.Fatal {
				t.Errorf("misleading class %q curated fatal", cl.Entry)
			}
			if !cl.Severity.IsFatal() {
				t.Errorf("misleading class %q has severity %v, want FATAL", cl.Entry, cl.Severity)
			}
		}
	}
	if misleading != 8 { // 6 KERNEL + 2 MONITOR
		t.Errorf("misleading classes = %d, want 8", misleading)
	}
}

func TestFatalClassesHaveFatalSeverity(t *testing.T) {
	c := NewCatalog()
	for _, cl := range c.Classes() {
		if cl.Fatal && !cl.Severity.IsFatal() {
			t.Errorf("fatal class %q recorded severity %v", cl.Entry, cl.Severity)
		}
		if !cl.Fatal && !cl.Misleading && cl.Severity.IsFatal() {
			t.Errorf("non-fatal non-misleading class %q has fatal severity", cl.Entry)
		}
	}
}

func TestClassPanicsOutOfRange(t *testing.T) {
	c := NewCatalog()
	defer func() {
		if recover() == nil {
			t.Fatal("Class(10000) did not panic")
		}
	}()
	c.Class(10000)
}
