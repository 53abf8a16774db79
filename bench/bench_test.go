package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/raslog"
	"repro/internal/stream"
)

// ---- feed determinism --------------------------------------------------

func feedDigest(f *feed) string {
	h := sha256.New()
	for _, l := range f.lanes {
		for _, reqs := range [][]request{l.history, l.live} {
			for i := range reqs {
				fmt.Fprintf(h, "%s %d\n", reqs[i].path, len(reqs[i].events))
				h.Write(reqs[i].body)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Every byte the daemon receives is a function of -seed: two builds of
// the same seed are byte-identical, another seed differs, and one seed's
// digest is pinned so an accidental change to the feed (and with it to
// every number measured on it) fails here first.
func TestFeedIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := findWorkload("serve-predict")
	a, err := buildFeed(w, 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildFeed(w, 7, 0.05)
	c, _ := buildFeed(w, 8, 0.05)
	if feedDigest(a) != feedDigest(b) {
		t.Fatal("same seed, different bodies")
	}
	if feedDigest(a) == feedDigest(c) {
		t.Fatal("different seeds, same bodies")
	}
	const pinned = "6aa0f8f7d784c6df60fc94709142a30ededa35157617905ff1966100f8063226"
	if got := feedDigest(a); got != pinned {
		t.Errorf("serve-predict seed 7 feed digest = %s, pinned %s", got, pinned)
	}
	if a.outOfOrder == 0 {
		t.Error("serve-predict feed has no out-of-order events")
	}
}

// Batches are cut between seconds, never inside one, and respect the
// line and span caps.
func TestBatchCutsAreSecondAligned(t *testing.T) {
	for _, name := range []string{"serve-durable", "serve-fleet"} {
		w, _ := findWorkload(name)
		f, err := buildFeed(w, 3, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range f.lanes {
			last := map[int]int64{} // per tenant: newest time of the previous batch
			for i := range l.live {
				r := &l.live[i]
				first, newest := r.events[0].Time, r.events[len(r.events)-1].Time
				if prev, ok := last[r.tenant]; ok && first <= prev {
					t.Fatalf("%s: batch %d starts at %d, inside the previous batch's last second %d", name, i, first, prev)
				}
				sameSecond := first == newest
				if len(r.events) > w.MaxLines && !sameSecond {
					t.Fatalf("%s: batch %d has %d lines over more than one second", name, i, len(r.events))
				}
				if w.MaxSpan > 0 && newest-first > w.MaxSpan*1000 {
					t.Fatalf("%s: batch %d spans %d ms", name, i, newest-first)
				}
				if got := bytes.Count(r.body, []byte("\n")); got != len(r.events) {
					t.Fatalf("%s: batch %d body has %d lines for %d events", name, i, got, len(r.events))
				}
				last[r.tenant] = newest
			}
		}
	}
}

// A history whose tail the sequencer still holds when it ends (a quiet
// spell, then one burst) takes live events in until the release passes
// the training boundary; one that trains on its own is left alone.
func TestHistoryAloneTrainsTheDaemon(t *testing.T) {
	w := workload{Train: 1, Reorder: 60}
	at := func(sec int64) raslog.Event { return raslog.Event{Time: sec * 1000} }
	live := []raslog.Event{at(weekSec + 140), at(weekSec + 165), at(weekSec + 165), at(weekSec + 900), at(weekSec + 1000)}

	quietTail := []raslog.Event{at(0), at(weekSec - 3600), at(weekSec + 100), at(weekSec + 130)}
	h, l := untilTrained(w, quietTail, live)
	if len(h) != len(quietTail)+3 || len(l) != 2 {
		t.Fatalf("history took %d live events, left %d; want 3 (through the tied second) and 2", len(h)-len(quietTail), len(l))
	}
	if newest := h[len(h)-1].Time; l[0].Time <= newest {
		t.Fatalf("live opens at %d, inside the history's last second %d", l[0].Time, newest)
	}

	trains := []raslog.Event{at(0), at(weekSec + 100), at(weekSec + 161)}
	if h, l := untilTrained(w, trains, live); len(h) != len(trains) || len(l) != len(live) {
		t.Fatalf("a history that trains on its own was changed: %d history, %d live", len(h), len(l))
	}
}

// No stretch of stream time as long as the tolerance keeps more events
// than three quarters of the reorder buffer's limit, and a feed that
// never comes near it is untouched.
func TestThinBoundsWhatTheReorderBufferHolds(t *testing.T) {
	const most = reorderLimit * 3 / 4
	var storm []raslog.Event
	for i := 0; i < 3*reorderLimit; i++ { // 100 events a second, tolerance 60 s: 6000 a window
		storm = append(storm, raslog.Event{RecordID: int64(i), Time: int64(i/100) * 1000})
	}
	kept := thin(append([]raslog.Event(nil), storm...), 60)
	if len(kept) == len(storm) {
		t.Fatal("nothing dropped from a storm twice as dense as the limit")
	}
	lo, deepest := 0, 0
	for hi := range kept {
		for kept[lo].Time <= kept[hi].Time-60000 {
			lo++
		}
		deepest = max(deepest, hi-lo+1)
	}
	if deepest != most {
		t.Fatalf("deepest window holds %d events, want exactly %d", deepest, most)
	}
	if sparse := thin(append([]raslog.Event(nil), storm...), 20); len(sparse) != len(storm) {
		t.Fatalf("a feed of 2000 events per tolerance lost %d", len(storm)-len(sparse))
	}
}

func TestAppendLineMatchesWriteLog(t *testing.T) {
	events, err := generate(bgsim.SDSC(11).Scaled(2, 0.5), 5000)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := raslog.WriteLog(&want, &raslog.Log{Events: events}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i := range events {
		got = appendLine(got, &events[i])
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("appendLine and raslog.WriteLog disagree")
	}
}

// ---- reference ≡ service ------------------------------------------------

// The reference pipeline must agree with a real in-memory service fed
// the same requests one at a time, and — because two connections may
// deliver adjacent batches in either order — with the service fed every
// adjacent pair swapped, at either parity. serve-predict's displaced and
// late events are what makes the second half bite.
func TestReferenceMatchesServiceUnderAdjacentInversion(t *testing.T) {
	for _, name := range []string{"serve-durable", "serve-predict", "serve-fleet"} {
		w, _ := findWorkload(name)
		f, err := buildFeed(w, 5, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []request
		for _, r := range append(append([]request(nil), f.lanes[0].history...), f.lanes[0].live...) {
			if r.tenant == 0 {
				reqs = append(reqs, r)
			}
		}
		nh := 0
		for _, r := range f.lanes[0].history {
			if r.tenant == 0 {
				nh++
			}
		}
		pipe := newRefPipe(w.Reorder)
		var released []raslog.Event
		for i := range reqs {
			released = pipe.pushBatch(reqs[i].events, released)
			pipe.filter(released)
		}
		pipe.tolMs = -1 << 40 // Close flushes the buffer; so does this
		released = pipe.pushBatch(nil, released)
		pipe.filter(released)
		if name == "serve-predict" && pipe.counts.LateDropped == 0 {
			t.Errorf("%s: no late drops injected", name)
		}
		if name != "serve-predict" && pipe.counts.LateDropped != 0 {
			t.Errorf("%s: %d late drops in an ordered feed", name, pipe.counts.LateDropped)
		}
		if pipe.counts.Overflow != 0 || pipe.maxHeld >= reorderLimit {
			t.Errorf("%s: reorder buffer reached %d (overflow %d)", name, pipe.maxHeld, pipe.counts.Overflow)
		}

		swaps := []int{-1, nh, nh + 1} // -1: dispatch order
		if w.Fleet {
			swaps = swaps[:1] // one connection per tenant: never inverted
		}
		for _, swapFrom := range swaps {
			order := make([]int, len(reqs))
			for i := range order {
				order[i] = i
			}
			if swapFrom >= 0 {
				for i := swapFrom; i+1 < len(order); i += 2 {
					order[i], order[i+1] = order[i+1], order[i]
				}
			}
			svc, err := stream.New(w.streamConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range order {
				batch, err := parseBody(reqs[k].body, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := svc.IngestBatch(context.Background(), batch); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			st := svc.Stats()
			got := refCounts{st.Ingested, st.Sequenced, st.LateDropped, st.ReorderOverflow, st.AfterTemporal, st.Processed, st.Fatals}
			if got != pipe.counts {
				t.Errorf("%s (swap from %d): service %+v, reference %+v", name, swapFrom, got, pipe.counts)
			}
		}
	}
}

// ---- statistics ----------------------------------------------------------

func TestPercentileGuardsItsSampleCount(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if v, ok := percentile(vs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, supported (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(vs[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be supported")
	}
	if v, ok := percentile(vs, 0.5); v != 500 || !ok {
		t.Errorf("p50 of 1..1000 = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supported a percentile")
	}
}

// quartiles must be Python's statistics.quantiles(values, n=4): the
// driver computes the spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 100}); math.Abs(s-0.025) > 1e-12 {
		t.Errorf("spread = %v, want 0.025", s)
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "capacity_eps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	if _, v := verdict(m, steady, []float64{95, 96, 94, 95, 95}); v != "unchanged" {
		t.Errorf("-5%% within a 10%% bound: %s", v)
	}
	if _, v := verdict(m, steady, []float64{85, 86, 84, 85, 85}); v != "regressed" {
		t.Errorf("-15%% beyond a 10%% bound: %s", v)
	}
	if _, v := verdict(m, steady, []float64{60, 130, 85, 100, 140}); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	lower := metricSpec{Name: "retrain_ms", Better: "lower", Bound: 0.10}
	if _, v := verdict(lower, steady, []float64{115, 116, 114, 115, 115}); v != "regressed" {
		t.Errorf("+15%% on a lower-is-better metric: %s", v)
	}
}

// ---- open-loop scheduler ---------------------------------------------------

// A paced phase times every request from its due instant: a server stall
// shows up as latency on the requests that were due during it even
// though they were sent late, and the lateness is reported separately.
func TestPacedPhaseTimesFromTheDueInstant(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		if served == 3 {
			time.Sleep(120 * time.Millisecond) // one stall
		}
		fmt.Fprint(w, `{"accepted": 10}`)
	}))
	defer srv.Close()
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{path: "/ingest/batch", body: []byte("x\n"), events: make([]raslog.Event, 10)}
	}
	// One connection, 10 events per request at 1000 events/s: one request
	// due every 10 ms, 20 requests over 200 ms of schedule.
	s := newSender(srv.URL)
	defer s.close()
	l := newLaneRun(reqs, []*sender{s})
	ps := runPhase("paced", []*laneRun{l}, 1000, 200*time.Millisecond, 0, 0, nil)
	if ps.Requests != 20 || ps.Acked != 200 || ps.FailedEvents != 0 {
		t.Fatalf("requests %d acked %d failed %d", ps.Requests, ps.Acked, ps.FailedEvents)
	}
	late, slow := 0, 0
	for i := range ps.Lat {
		if ps.Late[i] > 20*time.Millisecond {
			late++
		}
		if ps.Lat[i] > 50*time.Millisecond {
			slow++
		}
	}
	// The stalled request and the ones queued behind it (due every 10 ms
	// during a 120 ms stall) all carry the stall in their latency.
	if slow < 5 {
		t.Errorf("%d requests slower than 50 ms; the stall must be charged to every request due during it", slow)
	}
	if late < 4 {
		t.Errorf("%d requests sent more than 20 ms late; generator lateness must be recorded", late)
	}
	if ps.Wall < 190*time.Millisecond {
		t.Errorf("phase took %v, the last request was due at 190 ms", ps.Wall)
	}
}

// The send window: with two connections request i+2 is not dispatched
// before request i is answered.
func TestSendWindowKeepsInversionsAdjacent(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := new(bytes.Buffer)
		body.ReadFrom(r.Body)
		started <- body.String()
		if body.String() == "0" {
			<-release // request 0 stalls
		}
		fmt.Fprint(w, `{"accepted": 1}`)
	}))
	defer srv.Close()
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i] = request{path: "/", body: []byte(fmt.Sprint(i)), events: make([]raslog.Event, 1)}
	}
	a, b := newSender(srv.URL), newSender(srv.URL)
	defer a.close()
	defer b.close()
	l := newLaneRun(reqs, []*sender{a, b})
	done := make(chan phaseStats, 1)
	go func() { done <- runPhase("closed", []*laneRun{l}, 0, time.Minute, 0, 0, nil) }()
	seen := map[string]bool{<-started: true, <-started: true}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("first two dispatched: %v", seen)
	}
	select {
	case s := <-started:
		t.Fatalf("request %s dispatched while request 0 was unanswered", s)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if ps := <-done; ps.Requests != 4 || ps.Acked != 4 {
		t.Fatalf("requests %d acked %d", ps.Requests, ps.Acked)
	}
}

// ---- /proc and /metrics readers ---------------------------------------------

func TestProcReaders(t *testing.T) {
	// A comm with spaces and parentheses, then state and 11 more fields
	// before utime (14) and stime (15).
	stat := "1234 (serve (v2) x) S 1 1234 1234 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("utime 250 + stime 50 ticks = %v, %v; want 3s", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	rss, err := parseVmHWM("Name:\tserve\nVmPeak:\t  999 kB\nVmHWM:\t   36864 kB\nVmRSS:\t 1 kB\n")
	if err != nil || rss != 36 {
		t.Errorf("VmHWM 36864 kB = %v MB, %v", rss, err)
	}
	if _, err := parseVmHWM("Name:\tserve\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	total, steal := parseHostCPU("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	if total != 1000 || steal != 35 {
		t.Errorf("host cpu line: total %v steal %v, want 1000 35", total, steal)
	}
	// And against the live kernel: this process has burned some CPU and
	// holds some memory.
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %v, %v", rss, err)
	}
}

func TestSnapshotSumsTenantsAndTakesDeltas(t *testing.T) {
	const exposition = `# TYPE fleet_tenants_active gauge
fleet_tenants_active 2
# TYPE stream_sequenced_total counter
stream_sequenced_total{tenant="t00"} 100
stream_sequenced_total{tenant="t01"} 50
# TYPE stream_stage_latency_seconds histogram
stream_stage_latency_seconds_sum{stage="shard",tenant="t00"} 0.5
stream_stage_latency_seconds_count{stage="shard",tenant="t00"} 100
stream_stage_latency_seconds_sum{stage="shard",tenant="t01"} 0.25
stream_stage_latency_seconds_count{stage="shard",tenant="t01"} 50
# TYPE stream_queue_depth gauge
stream_queue_depth{queue="sequencer",tenant="t00"} 3
stream_queue_depth{queue="sequencer",tenant="t01"} 0
`
	s, err := parseSnapshot(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if s["stream_sequenced_total"] != 150 || s["fleet_tenants_active"] != 2 {
		t.Errorf("tenant sum: %v", s)
	}
	if s[`stream_stage_latency_seconds_sum{stage="shard"}`] != 0.75 || s[`stream_stage_latency_seconds_count{stage="shard"}`] != 150 {
		t.Errorf("labelled tenant sum: %v", s)
	}
	if s.queuesEmpty() || s.queueDepth() != 3 {
		t.Errorf("queue depth %v", s.queueDepth())
	}
	if _, err := parseSnapshot(strings.NewReader("stream_x 1\n")); err == nil {
		t.Error("a sample without # TYPE must be rejected (obsv.ParseText is strict)")
	}
	for key, want := range map[string]string{
		`a{tenant="x"}`:           "a",
		`a{tenant="x",stage="s"}`: `a{stage="s"}`,
		`a{stage="s",tenant="x"}`: `a{stage="s"}`,
		`a{stage="s"}`:            `a{stage="s"}`,
		`a`:                       "a",
	} {
		if got := stripTenant(key); got != want {
			t.Errorf("stripTenant(%s) = %s, want %s", key, got, want)
		}
	}
}

// ---- spans --------------------------------------------------------------------

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "filter", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "spatial", Start: 50, End: 60},
	}}
	got := tr.totals()
	if got["request"].Self != 20 || got["filter"].Self != 40 || got["parse"].Self != 30 || got["request"].Total != 100 {
		t.Errorf("totals %+v", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, 0)) // the untraced twin: must not panic
}

// ---- BENCHMARK.json --------------------------------------------------------------

// BENCHMARK.json is the driver-facing copy of spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, spec %q %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: %+v, spec %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, spec %v", kind, m.Name, g.Bound, m.Bound)
			}
			if len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: name or unit too long", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Error("too many metrics for the driver")
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound == 0 && m.Moves == "" {
			t.Errorf("layer metric %s names no end-to-end metric it should move", m.Name)
		}
	}
}
