package stream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/raslog"
)

// parseLog round-trips raw text-codec bytes back into events — the text
// codec stores whole seconds, so the reference for a backfill must be
// built from the parsed lines, not the generator's millisecond events.
func parseLog(t *testing.T, data []byte) *raslog.Log {
	t.Helper()
	sc := raslog.NewScanner(bytes.NewReader(data))
	var evs []raslog.Event
	for sc.Scan() {
		evs = append(evs, sc.Event())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return &raslog.Log{Name: "backfill", Events: evs}
}

// chunkReference feeds l to a plain service in ingestBatchChunk-event
// batches, as Backfill submits it, waiting after each until it is
// applied, and returns the closed service.
func chunkReference(t *testing.T, l *raslog.Log) *Service {
	t.Helper()
	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	feedBatches(t, s, l.Events, func(int) int { return ingestBatchChunk })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// chunkGate is the reader a backfill test hands Backfill. It serves the
// input one ingestBatchChunk-event chunk at a time, and before each
// chunk after the first it waits until the service has applied the
// chunks before it and installed any pass they started. Backfill's
// passes then install at the chunk seams where chunkReference's do.
type chunkGate struct {
	s      *Service
	pieces [][]byte // the input, cut after every ingestBatchChunk-th event line
	cur    []byte
	fed    int64 // events in the pieces served so far
	counts []int64
}

func newChunkGate(s *Service, input []byte) *chunkGate {
	g := &chunkGate{s: s}
	in := raslog.NewInterner()
	start, events := 0, 0
	for i := 0; i < len(input); {
		end := len(input)
		if j := bytes.IndexByte(input[i:], '\n'); j >= 0 {
			end = i + j + 1
		}
		if line := bytes.TrimSuffix(input[i:end], []byte("\n")); len(line) > 0 {
			if _, err := raslog.ParseLineBytes(line, in); err == nil {
				events++
			}
		}
		i = end
		if events == ingestBatchChunk || i == len(input) {
			g.pieces = append(g.pieces, input[start:i])
			g.counts = append(g.counts, int64(events))
			start, events = i, 0
		}
	}
	return g
}

func (g *chunkGate) Read(p []byte) (int, error) {
	if len(g.cur) == 0 {
		if len(g.pieces) == 0 {
			return 0, io.EOF
		}
		deadline := time.Now().Add(30 * time.Second)
		for !g.settled() {
			if time.Now().After(deadline) {
				return 0, errors.New("backfilled chunk not applied in time")
			}
			time.Sleep(time.Millisecond)
		}
		g.cur, g.pieces = g.pieces[0], g.pieces[1:]
		g.fed += g.counts[0]
		g.counts = g.counts[1:]
	}
	n := copy(p, g.cur)
	g.cur = g.cur[n:]
	return n, nil
}

// settled reports that every event served so far was submitted and
// applied and that no pass is in flight (see applied).
func (g *chunkGate) settled() bool {
	s := g.s
	depth := int64(s.m.reorderDepth.Value())
	return s.m.ingested.Value() == g.fed &&
		depth+s.m.sequenced.Value()+s.m.lateDropped.Value() == g.fed && !s.retraining.Load()
}

// TestBackfillMatchesDirectIngest is the backfill acceptance test: a
// raw text log fed through Backfill (decode goroutine, ordered submit,
// many chunk seams) must leave the service in exactly the state direct
// in-order ingest of the same events, in the same chunks, leaves it.
func TestBackfillMatchesDirectIngest(t *testing.T) {
	l := genLog(t, 31, 14)
	if len(l.Events) < 4*ingestBatchChunk {
		t.Fatalf("log has %d events — too few to exercise chunk seams", len(l.Events))
	}
	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	ref := chunkReference(t, parseLog(t, buf.Bytes()))
	if len(ref.Rules()) == 0 || len(ref.Warnings(0)) == 0 {
		t.Fatalf("reference run is trivial: %d rules, %d warnings",
			len(ref.Rules()), len(ref.Warnings(0)))
	}

	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Backfill(context.Background(), newChunkGate(s, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lines != int64(len(l.Events)) {
		t.Fatalf("backfill fed %d lines, want %d", res.Lines, len(l.Events))
	}
	if res.Skipped != 0 {
		t.Fatalf("backfill skipped %d lines of a clean log", res.Skipped)
	}
	if st := s.Stats(); st.Backfill == nil || st.Backfill.Lines != res.Lines {
		t.Fatalf("Stats.Backfill = %+v, want %d lines", st.Backfill, res.Lines)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, s, ref)
}

// TestBackfillSkipsGarbage: mangled lines are counted and skipped, never
// fatal, and the surviving events still replay exactly.
func TestBackfillSkipsGarbage(t *testing.T) {
	l := genLog(t, 37, 4)
	var clean bytes.Buffer
	if _, err := raslog.WriteLog(&clean, l); err != nil {
		t.Fatal(err)
	}
	ref := chunkReference(t, parseLog(t, clean.Bytes()))

	var dirty bytes.Buffer
	garbage := 0
	sc := bufio.NewScanner(bytes.NewReader(clean.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for i := 0; sc.Scan(); i++ {
		if i%50 == 0 {
			fmt.Fprintf(&dirty, "### corrupted line %d ###\n", i)
			garbage++
		}
		dirty.Write(sc.Bytes())
		dirty.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Backfill(context.Background(), newChunkGate(s, dirty.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != int64(garbage) {
		t.Fatalf("skipped %d lines, want %d", res.Skipped, garbage)
	}
	if res.Lines != int64(len(l.Events)) {
		t.Fatalf("fed %d lines, want %d", res.Lines, len(l.Events))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	compareServices(t, s, ref)
}

// gateReader blocks Read until released, then reports EOF — it holds a
// backfill open for exactly as long as the test needs.
type gateReader struct{ release chan struct{} }

func (g *gateReader) Read(p []byte) (int, error) {
	<-g.release
	return 0, io.EOF
}

// TestBackfillSingleton: one backfill at a time; a second concurrent
// call gets ErrBackfillBusy, and the slot frees once the first ends.
func TestBackfillSingleton(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	g := &gateReader{release: make(chan struct{})}
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Backfill(context.Background(), g)
		errCh <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return s.backfill.active.Load() })
	if _, err := s.Backfill(context.Background(), strings.NewReader("")); !errors.Is(err, ErrBackfillBusy) {
		t.Fatalf("concurrent Backfill: %v, want ErrBackfillBusy", err)
	}
	close(g.release)
	if err := <-errCh; err != nil {
		t.Fatalf("first backfill: %v", err)
	}
	if _, err := s.Backfill(context.Background(), strings.NewReader("")); err != nil {
		t.Fatalf("backfill after slot freed: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackfillCancel: a canceled context stops the run promptly with
// ctx.Err, not a hang.
func TestBackfillCancel(t *testing.T) {
	s, err := New(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &gateReader{release: make(chan struct{})}
	defer close(g.release)
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Backfill(ctx, g)
		errCh <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return s.backfill.active.Load() })
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled backfill: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("backfill did not stop after cancel")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackfillOnStandbyRefused: a replica's stream comes from its
// leader alone.
func TestBackfillOnStandbyRefused(t *testing.T) {
	s := newStandby(t, t.TempDir())
	if _, err := s.Backfill(context.Background(), strings.NewReader("")); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby Backfill: %v, want ErrStandby", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackfillHTTP drives POST /backfill end to end, including the busy
// conflict.
func TestBackfillHTTP(t *testing.T) {
	l := genLog(t, 41, 4)
	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/backfill", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /backfill: HTTP %d: %s", resp.StatusCode, b)
	}
	var res BackfillResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Lines != int64(len(l.Events)) || res.Skipped != 0 {
		t.Fatalf("POST /backfill fed %d lines (skipped %d), want %d (0)",
			res.Lines, res.Skipped, len(l.Events))
	}
}

// TestBackfillRejectsOverlongLine pins backfill's memory bound: a line
// past the 1 MiB limit (here a 3 MiB body with no newline) ends the run
// with an error naming that line instead of being read whole into
// memory. The lines before it stay fed, and POST /backfill answers 400
// with the lines and skipped counts, as for any read error.
func TestBackfillRejectsOverlongLine(t *testing.T) {
	l := genLog(t, 43, 4)
	var good bytes.Buffer
	if _, err := raslog.WriteLog(&good, l); err != nil {
		t.Fatal(err)
	}
	body := func() io.Reader {
		return io.MultiReader(bytes.NewReader(good.Bytes()),
			bytes.NewReader(bytes.Repeat([]byte("x"), 3<<20)))
	}
	overlong := fmt.Sprintf("line %d:", len(l.Events)+1)

	s, err := New(durableConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Backfill(context.Background(), body())
	if !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), overlong) {
		t.Fatalf("overlong line: %v, want bufio.ErrTooLong naming %q", err, overlong)
	}
	if res.Lines != int64(len(l.Events)) || res.Skipped != 0 {
		t.Fatalf("fed %d lines (skipped %d) before the overlong line, want %d (0)",
			res.Lines, res.Skipped, len(l.Events))
	}

	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/backfill", "text/plain", body())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error   string `json:"error"`
		Lines   *int64 `json:"lines"`
		Skipped *int64 `json:"skipped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || out.Lines == nil || out.Skipped == nil ||
		!strings.Contains(out.Error, overlong) {
		t.Fatalf("POST /backfill with an overlong line: HTTP %d %+v, want 400 with lines, skipped and %q",
			resp.StatusCode, out, overlong)
	}
}
