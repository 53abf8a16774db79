package raslog

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func mkLog(times ...int64) *Log {
	l := NewLog("test", len(times))
	for i, tm := range times {
		l.Append(Event{RecordID: int64(i), Time: tm, Facility: Kernel, Severity: Info})
	}
	return l
}

func TestSortByTimeStable(t *testing.T) {
	l := NewLog("t", 4)
	l.Append(Event{RecordID: 1, Time: 200})
	l.Append(Event{RecordID: 2, Time: 100})
	l.Append(Event{RecordID: 3, Time: 100})
	l.Append(Event{RecordID: 4, Time: 50})
	l.SortByTime()
	if !l.Sorted() {
		t.Fatal("not sorted after SortByTime")
	}
	wantIDs := []int64{4, 2, 3, 1}
	for i, w := range wantIDs {
		if l.Events[i].RecordID != w {
			t.Errorf("position %d: id %d, want %d", i, l.Events[i].RecordID, w)
		}
	}
}

func TestStartEndWeeks(t *testing.T) {
	l := mkLog(0, MillisPerWeek, 2*MillisPerWeek+5)
	if l.Start() != 0 || l.End() != 2*MillisPerWeek+5 {
		t.Errorf("Start/End = %d/%d", l.Start(), l.End())
	}
	if w := l.Weeks(); w != 3 {
		t.Errorf("Weeks = %d, want 3", w)
	}
	empty := NewLog("e", 0)
	if empty.Start() != 0 || empty.End() != 0 || empty.Weeks() != 0 {
		t.Error("empty log Start/End/Weeks not zero")
	}
}

func TestWindowBoundaries(t *testing.T) {
	l := mkLog(10, 20, 30, 40)
	got := l.Window(20, 40) // inclusive from, exclusive to
	if len(got) != 2 || got[0].Time != 20 || got[1].Time != 30 {
		t.Errorf("Window(20,40) = %v", got)
	}
	if len(l.Window(100, 200)) != 0 {
		t.Error("out-of-range window not empty")
	}
	if len(l.Window(0, 100)) != 4 {
		t.Error("full window wrong")
	}
}

func TestWindowPropertyQuick(t *testing.T) {
	r := stats.NewRNG(5)
	times := make([]int64, 300)
	for i := range times {
		times[i] = r.Int63n(1_000_000)
	}
	l := mkLog(times...)
	l.SortByTime()
	f := func(a, b uint32) bool {
		from := int64(a % 1_000_000)
		to := int64(b % 1_000_000)
		if from > to {
			from, to = to, from
		}
		win := l.Window(from, to)
		// Every event in the window is in range, and the count matches a
		// brute-force scan.
		count := 0
		for _, e := range l.Events {
			if e.Time >= from && e.Time < to {
				count++
			}
		}
		if count != len(win) {
			return false
		}
		for _, e := range win {
			if e.Time < from || e.Time >= to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeekSlice(t *testing.T) {
	l := mkLog(0, 1, MillisPerWeek, MillisPerWeek+1, 2*MillisPerWeek)
	if got := l.WeekSlice(0); len(got) != 2 {
		t.Errorf("week 0 has %d events, want 2", len(got))
	}
	if got := l.WeekSlice(1); len(got) != 2 {
		t.Errorf("week 1 has %d events, want 2", len(got))
	}
	if got := l.WeekSlice(2); len(got) != 1 {
		t.Errorf("week 2 has %d events, want 1", len(got))
	}
}

func TestCounts(t *testing.T) {
	l := NewLog("t", 3)
	l.Append(Event{Severity: Fatal, Facility: Kernel})
	l.Append(Event{Severity: Info, Facility: Kernel})
	l.Append(Event{Severity: Fatal, Facility: App})
	byFac := l.CountByFacility()
	if byFac[Kernel] != 2 || byFac[App] != 1 {
		t.Errorf("CountByFacility = %v", byFac)
	}
}

func TestValidate(t *testing.T) {
	good := mkLog(1, 2, 3)
	if err := good.Validate(); err != nil {
		t.Errorf("valid log rejected: %v", err)
	}
	unsorted := mkLog(3, 1)
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted log accepted")
	}
	bad := mkLog(1)
	bad.Events[0].Severity = Severity(99)
	if err := bad.Validate(); err == nil {
		t.Error("invalid severity accepted")
	}
	bad2 := mkLog(1)
	bad2.Events[0].Facility = Facility(99)
	if err := bad2.Validate(); err == nil {
		t.Error("invalid facility accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	l := mkLog(1, 2)
	c := l.Clone()
	c.Events[0].Time = 999
	if l.Events[0].Time == 999 {
		t.Error("Clone shares storage")
	}
	if c.Name != l.Name || c.Len() != l.Len() {
		t.Error("Clone lost metadata")
	}
}

func TestSliceSharesAndBounds(t *testing.T) {
	l := mkLog(10, 20, 30)
	s := l.Slice(15, 35)
	if s.Len() != 2 || s.Name != "test" {
		t.Errorf("Slice = %d events name %q", s.Len(), s.Name)
	}
}
