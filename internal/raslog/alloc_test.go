package raslog

import (
	"runtime"
	"strings"
	"testing"
)

const benchLine = "104|RAS|1117838570|147|R02-M1-N0-C:J12-U11|KERNEL|INFO|instruction cache parity error corrected"

// TestParseLineBytesAllocBudget pins the fast path's steady-state budget:
// once the line's vocabulary is interned, parsing must not allocate.
func TestParseLineBytesAllocBudget(t *testing.T) {
	in := NewInterner()
	line := []byte(benchLine)
	if _, err := ParseLineBytes(line, in); err != nil { // warm the interner
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := ParseLineBytes(line, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseLineBytes allocates %.1f times per warm line, want 0", allocs)
	}
}

// TestScannerAllocBudget extends the budget through Scan: the scanner
// reuses bufio's line buffer and the interner, so steady-state decoding
// of a repeating vocabulary stays allocation-free per event.
func TestScannerAllocBudget(t *testing.T) {
	const n = 2000
	input := strings.Repeat(benchLine+"\n", n)
	sc := NewScanner(strings.NewReader(input))
	if !sc.Scan() { // first line pays the vocabulary cost
		t.Fatal(sc.Err())
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	count := 1
	for sc.Scan() {
		count++
	}
	runtime.ReadMemStats(&ms1)
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scanned %d lines, want %d", count, n)
	}
	// Allow a handful of fixed-cost allocations (bufio buffer growth),
	// but nothing proportional to the line count.
	if got := ms1.Mallocs - ms0.Mallocs; got > 32 {
		t.Fatalf("Scan allocated %d objects over %d lines, want <= 32", got, n-1)
	}
}

// TestScanLogAllocBudget extends the budget through the decode-ahead
// hand-off: ScanLog pays a fixed set-up (scanner, interner, goroutine,
// channels) and recycles its chunk slices, so what it allocates is
// bounded by the number of chunks, never by the number of lines.
func TestScanLogAllocBudget(t *testing.T) {
	const chunks = 16
	r := strings.NewReader(strings.Repeat(benchLine+"\n", chunks*scanChunk))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	count := 0
	err := ScanLog(r, func(Event) error {
		count++
		return nil
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	if count != chunks*scanChunk {
		t.Fatalf("scanned %d lines, want %d", count, chunks*scanChunk)
	}
	if got := ms1.Mallocs - ms0.Mallocs; got > 32+chunks {
		t.Fatalf("ScanLog allocated %d objects over %d lines in %d chunks, want <= %d",
			got, count, chunks, 32+chunks)
	}
}

func TestParseLineBytesMatchesParseLine(t *testing.T) {
	lines := []string{
		benchLine,
		"1|RAS|1106281621|0|R00-M0|KERNEEL|ERROR|x", // bad facility
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|entry with | pipe",
		"9223372036854775807|RAS|1|0|L|APP|INFO|max id",
		"-5|RAS|-3|-9|L|APP|INFO|negative numbers",
		"x|RAS|1|2|l|APP|INFO|e",
		"1|RAS|999999999999999999999|2|l|APP|INFO|overflow",
		"1|RAS|+7|2|l|APP|INFO|plus sign",
		"1|RAS||2|l|APP|INFO|empty time",
		"a|b",
		"",
		"1|RAS|1106281621|0|R00-M0|KERNEL|ERROR|crlf\r",
	}
	for _, line := range lines {
		want, werr := ParseLine(line)
		got, gerr := ParseLineBytes([]byte(line), NewInterner())
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("ParseLine(%q) err=%v, ParseLineBytes err=%v", line, werr, gerr)
		}
		if werr == nil && want != got {
			t.Fatalf("ParseLine(%q) = %+v, ParseLineBytes = %+v", line, want, got)
		}
	}
}

func BenchmarkParseLine(b *testing.B) {
	in := NewInterner()
	line := []byte(benchLine)
	if _, err := ParseLineBytes(line, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLineBytes(line, in); err != nil {
			b.Fatal(err)
		}
	}
}
