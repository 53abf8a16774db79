package raslog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func scanLog(name string, events ...Event) *Log {
	l := NewLog(name, len(events))
	for _, e := range events {
		l.Append(e)
	}
	return l
}

func TestScannerRoundTrip(t *testing.T) {
	in := scanLog("s",
		Event{RecordID: 1, Type: "RAS", Time: 1000, JobID: 7, Location: "R00-M0",
			Facility: Kernel, Severity: Info, Entry: "hello"},
		Event{RecordID: 2, Type: "RAS", Time: 2000, JobID: 8, Location: "R00-M1",
			Facility: Monitor, Severity: Fatal, Entry: "boom"},
	)
	var buf bytes.Buffer
	if _, err := WriteLog(&buf, in); err != nil {
		t.Fatal(err)
	}

	// Scanner must yield exactly what ReadLog returns.
	want, err := ReadLog(bytes.NewReader(buf.Bytes()), "s")
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	var got []Event
	for sc.Scan() {
		got = append(got, sc.Event())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != want.Len() {
		t.Fatalf("scanned %d events, want %d", len(got), want.Len())
	}
	for i := range got {
		if got[i] != want.Events[i] {
			t.Errorf("event %d: scanner %+v != ReadLog %+v", i, got[i], want.Events[i])
		}
	}
}

func TestScannerSkipsBlankLines(t *testing.T) {
	input := "1|RAS|10|0|L|KERNEL|INFO|a\n\n\n2|RAS|20|0|L|KERNEL|INFO|b\n"
	sc := NewScanner(strings.NewReader(input))
	n := 0
	for sc.Scan() {
		n++
	}
	if sc.Err() != nil || n != 2 {
		t.Fatalf("got %d events, err %v; want 2, nil", n, sc.Err())
	}
}

func TestScannerDecodeError(t *testing.T) {
	input := "1|RAS|10|0|L|KERNEL|INFO|ok\nnot-a-record\n"
	sc := NewScanner(strings.NewReader(input))
	if !sc.Scan() {
		t.Fatal("first line should scan")
	}
	if sc.Scan() {
		t.Fatal("bad line should stop the scanner")
	}
	if sc.Err() == nil || !strings.Contains(sc.Err().Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", sc.Err())
	}
	if sc.Scan() {
		t.Fatal("scanner must stay stopped after an error")
	}
}

func TestScanLogCallbackError(t *testing.T) {
	input := "1|RAS|10|0|L|KERNEL|INFO|a\n2|RAS|20|0|L|KERNEL|INFO|b\n"
	sentinel := errors.New("stop")
	n := 0
	err := ScanLog(strings.NewReader(input), func(Event) error {
		n++
		return sentinel
	})
	if !errors.Is(err, sentinel) || n != 1 {
		t.Fatalf("got n=%d err=%v; want 1, sentinel", n, err)
	}
}

var errStop = errors.New("fn stops here")

// serialScan is the reference ScanLog must match: a plain Scanner loop
// calling fn on the caller's goroutine.
func serialScan(r io.Reader, fn func(Event) error) error {
	sc := NewScanner(r)
	for sc.Scan() {
		if err := fn(sc.Event()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// scanResult is what a scan delivered: the events fn accepted, how often
// fn was called, and the error the scan returned.
type scanResult struct {
	events []Event
	calls  int
	err    error
}

// collect runs scan over r with an fn that fails with errStop on its
// stop-th call (never when stop is 0).
func collect(scan func(io.Reader, func(Event) error) error, r io.Reader, stop int) scanResult {
	var res scanResult
	res.err = scan(r, func(e Event) error {
		res.calls++
		if res.calls == stop {
			return errStop
		}
		res.events = append(res.events, e)
		return nil
	})
	return res
}

// sameResult reports how two scan results differ, or "" when they agree:
// the same events, calls and error text (errStop must come back as is).
func sameResult(got, want scanResult) string {
	switch {
	case !slices.Equal(got.events, want.events):
		return fmt.Sprintf("delivered %d events, want %d (or they differ)", len(got.events), len(want.events))
	case got.calls != want.calls:
		return fmt.Sprintf("fn called %d times, want %d", got.calls, want.calls)
	case (got.err == nil) != (want.err == nil),
		got.err != nil && got.err.Error() != want.err.Error(),
		(want.err == errStop) != (got.err == errStop):
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	return ""
}

// codecLines returns n distinct well-formed codec lines.
func codecLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d|RAS|%d|%d|R%02d-M%d|KERNEL|INFO|entry %d", i, 1106281621+i/7, i%5, i%32, i%2, i%11)
	}
	return lines
}

// TestScanLogMatchesScanner pins ScanLog's delivered events and error to
// the serial Scanner loop at every size around the chunk boundary, and
// with each awkward line kind on either side of it.
func TestScanLogMatchesScanner(t *testing.T) {
	const c = scanChunk
	type scanCase struct {
		input   string
		failing bool // the input has a line the scanner rejects
	}
	cases := map[string]scanCase{}
	for _, n := range []int{0, 1, c - 1, c, c + 1, 3*c + 7} {
		cases[fmt.Sprintf("%d-lines", n)] = scanCase{input: strings.Join(codecLines(n), "\n")}
	}
	kinds := map[string]struct {
		rewrite func(line string) string
		failing bool
	}{
		"bad":   {func(string) string { return "not-a-record" }, true},
		"long":  {func(string) string { return strings.Repeat("x", 1<<20+1) }, true},
		"crlf":  {func(line string) string { return line + "\r" }, false},
		"blank": {func(line string) string { return "\n\n" + line + "\n" }, false},
	}
	for kind, k := range kinds {
		for _, at := range []int{c - 1, c} { // last event of one chunk, first of the next
			lines := codecLines(3*c + 7)
			lines[at] = k.rewrite(lines[at])
			cases[fmt.Sprintf("%s-at-%d", kind, at)] = scanCase{strings.Join(lines, "\n") + "\n", k.failing}
		}
	}
	for name, tc := range cases {
		want := collect(serialScan, strings.NewReader(tc.input), 0)
		got := collect(ScanLog, strings.NewReader(tc.input), 0)
		if diff := sameResult(got, want); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		if (want.err != nil) != tc.failing {
			t.Errorf("%s: reference scan returned %v", name, want.err)
		}
	}
}

// endlessLog yields one codec line forever, so a scan over it ends only
// when fn stops it.
type endlessLog struct {
	line []byte
	off  int
}

func (r *endlessLog) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestScanLogStopsAtCallbackError: when fn fails at event k, fn was called
// exactly k times, its error comes back unchanged, and the decoder stops —
// on an endless input, too.
func TestScanLogStopsAtCallbackError(t *testing.T) {
	const c = scanChunk
	input := strings.Join(codecLines(3*c+7), "\n")
	for _, k := range []int{1, c - 1, c, c + 1, 3*c + 7} {
		got := collect(ScanLog, strings.NewReader(input), k)
		if got.calls != k || got.err != errStop {
			t.Errorf("stop at %d: fn called %d times, err %v", k, got.calls, got.err)
		}
		got = collect(ScanLog, &endlessLog{line: []byte(benchLine + "\n")}, k)
		if got.calls != k || got.err != errStop {
			t.Errorf("endless input, stop at %d: fn called %d times, err %v", k, got.calls, got.err)
		}
	}
}

// heldReadMax caps every heldLog read, so the bytes delivered before the
// held read overshoot heldAfter by less than this.
const heldReadMax = 4096

// heldLog is an endlessLog that holds one read: the first to start once
// heldAfter bytes have been delivered. That read closes entered, then
// blocks until ScanLog has returned or a grace period has passed. A
// ScanLog that waits for its decoder sits the grace period out; one that
// returns while the decoder is still reading releases the read itself,
// and early is set.
type heldLog struct {
	endlessLog
	delivered, heldAfter        int
	entered, returned, released chan struct{}
	held, early                 bool
}

func (r *heldLog) Read(p []byte) (int, error) {
	if !r.held && r.delivered >= r.heldAfter {
		r.held = true
		close(r.entered)
		select {
		case <-r.returned:
			r.early = true
		case <-time.After(100 * time.Millisecond):
		}
		close(r.released)
	}
	n, err := r.endlessLog.Read(p[:min(len(p), heldReadMax)])
	r.delivered += n
	return n, err
}

// TestScanLogWaitsForDecoder: fn fails while the decoder is blocked in a
// read, and ScanLog must not return before that read does.
//
// The read is held once two chunks' worth of lines are delivered. By then
// the decoder has sent the first chunk, so fn runs; and it has decoded
// too few events to fill the queue (scanAhead chunks plus one waiting to
// be sent), so it must make the held read whatever the scheduling. fn
// waits for that read to begin, then fails.
func TestScanLogWaitsForDecoder(t *testing.T) {
	line := []byte(benchLine + "\n")
	heldAfter := 2 * scanChunk * len(line)
	if heldAfter+heldReadMax >= (scanAhead+1)*scanChunk*len(line) {
		t.Fatal("the held read could come after the decoder fills the queue")
	}
	r := &heldLog{endlessLog: endlessLog{line: line}, heldAfter: heldAfter,
		entered: make(chan struct{}), returned: make(chan struct{}), released: make(chan struct{})}
	err := ScanLog(r, func(Event) error {
		<-r.entered
		return errStop
	})
	close(r.returned)
	<-r.released
	if err != errStop {
		t.Fatalf("got %v, want fn's error", err)
	}
	if r.early { // written before released closed
		t.Fatal("ScanLog returned while its decoder was blocked in a read")
	}
}

// TestScanLogNoGoroutineLeak: the decoder goroutine is gone after a clean
// end of input, an fn error, and an fn panic, which reaches the caller.
func TestScanLogNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	input := strings.Join(codecLines(3*scanChunk+7), "\n")
	waitBase := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, started with %d", what, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}

	if res := collect(ScanLog, strings.NewReader(input), 0); res.err != nil || res.calls != 3*scanChunk+7 {
		t.Fatalf("clean scan: %d calls, err %v", res.calls, res.err)
	}
	waitBase("a clean end of input")

	if res := collect(ScanLog, strings.NewReader(input), scanChunk+1); res.err != errStop {
		t.Fatalf("fn error: got %v", res.err)
	}
	waitBase("an fn error")

	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want the panic from fn", p)
			}
		}()
		_ = ScanLog(&endlessLog{line: []byte(benchLine + "\n")}, func(Event) error { panic("boom") })
	}()
	waitBase("an fn panic")
}
