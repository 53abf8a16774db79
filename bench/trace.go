package main

// The traced run. Spans are recorded from the harness's own files,
// around calls into each layer's public functions — spans inside
// internal/* are a later change. They are kept in memory and written as
// JSON when the run ends; a layer's self time is its span minus the part
// its child spans cover.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stream"
)

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Request int    `json:"request_id"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced twin of a pass runs the identical code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

type spanTotal struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// totals sums duration and self time per span name.
func (t *tracer) totals() map[string]spanTotal {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - children[s.ID])
		out[s.Name] = st
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func spanFile(rc runConfig) string {
	return filepath.Join(filepath.Dir(rc.dir), fmt.Sprintf("spans-%s-%d.json", rc.w.Name, rc.seed))
}

// Replay bounds: the traced pass re-runs the head of the live feed, not
// all of it, so a traced run costs seconds, not another full run.
const (
	replayEvents   = 250000
	persistBatches = 400
)

// streamConfig mirrors cmd/serve's flag-to-config mapping for the
// workload, so the in-process service is the daemon's pipeline.
func (w workload) streamConfig() stream.Config {
	week := 7 * 24 * time.Hour
	cfg := stream.Defaults()
	cfg.InitialTrain = time.Duration(w.Train * float64(week))
	cfg.TrainWindow = cfg.InitialTrain
	cfg.RetrainEvery = time.Duration(w.Retrain * float64(week))
	cfg.Shards = 4
	cfg.ReorderWindow = time.Duration(w.Reorder) * time.Second
	cfg.QueueLen = 1024
	cfg.AdmitWait = 2 * time.Second
	return cfg
}

// trainer reproduces the service's retraining schedule over the
// reference pipeline's survivors: first pass once the stream has run
// -train weeks, then every -retrain weeks on a sliding -train window,
// through the same public calls stream.retrain makes.
type trainer struct {
	params  learner.Params
	ml      *meta.MetaLearner
	repo    *meta.Repository
	state   *incr.State
	window  int64 // ms
	every   int64 // ms
	next    int64 // next boundary, ms; 0 until the first event
	history []preprocess.TaggedEvent
	pr      *predictor.Predictor

	passes      int
	trainEvents int
	advance     time.Duration
	step        time.Duration
	learners    map[string]time.Duration
	revise      time.Duration
	swap        time.Duration
}

func newTrainer(w workload) *trainer {
	params := learner.Params{WindowSec: 300}
	ml := meta.New()
	return &trainer{
		params: params, ml: ml, repo: meta.NewRepository(),
		state:    incr.New(meta.IncrConfig(ml, params)),
		window:   int64(w.Train * weekMs),
		every:    int64(w.Retrain * weekMs),
		learners: map[string]time.Duration{},
	}
}

func (tr *trainer) resetTotals() {
	tr.passes, tr.trainEvents = 0, 0
	tr.advance, tr.step, tr.revise, tr.swap = 0, 0, 0, 0
	tr.learners = map[string]time.Duration{}
}

// maybeTrain runs every pass due at watermark.
func (tr *trainer) maybeTrain(watermark int64, t *tracer, parent, request int) error {
	for tr.next > 0 && watermark >= tr.next {
		at, from := tr.next, tr.next-tr.window
		tr.next += tr.every
		lo := sort.Search(len(tr.history), func(i int) bool { return tr.history[i].Time >= from })
		hi := sort.Search(len(tr.history), func(i int) bool { return tr.history[i].Time >= at })
		tr.history = tr.history[lo:]
		snapshot := tr.history[:hi-lo]
		pre := learner.Prepare(snapshot)

		sp := t.begin("learner.incr_advance", parent, request)
		t0 := time.Now()
		tr.state.Advance(snapshot, from, at, tr.params)
		tr.state.Install(pre)
		tr.advance += time.Since(t0)
		t.end(sp)

		sp = t.begin("engine.train_step", parent, request)
		t0 = time.Now()
		rt, err := engine.TrainStepPrepared(tr.ml, tr.repo, pre, tr.params)
		tr.step += time.Since(t0)
		t.end(sp)
		if err != nil {
			return err
		}
		for name, d := range rt.LearnerDurations {
			tr.learners[name] += d
		}
		tr.revise += rt.ReviseDuration
		tr.trainEvents += rt.TrainEvents
		tr.passes++

		sp = t.begin("predictor.swap", parent, request)
		t0 = time.Now()
		pr := predictor.New(tr.repo.Rules(), tr.params)
		pr.GlobalDedup = true
		engine.ClampDedup(pr, tr.params.WindowSec)
		if tr.pr != nil {
			pr.SeedLastFatal(tr.pr.LastFatal())
			pr.SeedLastWarn(tr.pr.LastWarnTimes())
		}
		tr.pr = pr
		tr.swap += time.Since(t0)
		t.end(sp)
	}
	return nil
}

// flowTotals is what one pass of the request flow measured.
type flowTotals struct {
	events, released, kept, warnings int
	bodyBytes                        int
	parse, filter, observe           time.Duration
	residentKeys                     int
	wall                             time.Duration
	tr                               *trainer
}

// parseBody runs raslog.Scanner over one request body.
func parseBody(body []byte, into []raslog.Event) ([]raslog.Event, error) {
	sc := raslog.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		into = append(into, sc.Event())
	}
	return into, sc.Err()
}

// flow replays requests one at a time through the synchronous layers —
// parse, (reference sequencer), filter, predictor, retraining — with a
// span per call. History requests warm the state and are not timed.
func flow(w workload, history, live []request, t *tracer) (flowTotals, error) {
	var ft flowTotals
	tr := newTrainer(w)
	ft.tr = tr
	pipe := newRefPipe(w.Reorder)
	var keptBatch []preprocess.TaggedEvent
	pipe.kept = func(te preprocess.TaggedEvent) {
		tr.history = append(tr.history, te)
		keptBatch = append(keptBatch, te)
	}
	var events, released []raslog.Event
	step := func(id int, r *request, timed bool) error {
		root := 0
		var tt *tracer
		if timed {
			tt = t
			root = tt.begin("request", 0, id)
		}
		sp := tt.begin("raslog.parse", root, id)
		t0 := time.Now()
		var err error
		events, err = parseBody(r.body, events[:0])
		dParse := time.Since(t0)
		tt.end(sp)
		if err != nil {
			return err
		}
		if len(events) != len(r.events) {
			return fmt.Errorf("request %d parses to %d events, generated %d", id, len(events), len(r.events))
		}

		released = pipe.pushBatch(events, released)
		if tr.next == 0 && len(released) > 0 {
			tr.next = released[0].Time + tr.window
		}

		keptBatch = keptBatch[:0]
		sp = tt.begin("preprocess.filter", root, id)
		t0 = time.Now()
		pipe.filter(released)
		dFilter := time.Since(t0)
		tt.end(sp)

		sp = tt.begin("predictor.observe", root, id)
		t0 = time.Now()
		warnings := 0
		if tr.pr != nil {
			for _, te := range keptBatch {
				warnings += len(tr.pr.Observe(te))
			}
		}
		dObserve := time.Since(t0)
		tt.end(sp)

		if len(released) > 0 {
			if err := tr.maybeTrain(released[len(released)-1].Time, tt, root, id); err != nil {
				return err
			}
		}
		tt.end(root)
		if timed {
			ft.events += len(events)
			ft.bodyBytes += len(r.body)
			ft.released += len(released)
			ft.kept += len(keptBatch)
			ft.warnings += warnings
			ft.parse += dParse
			ft.filter += dFilter
			ft.observe += dObserve
		}
		return nil
	}
	for i := range history {
		if err := step(-1-i, &history[i], false); err != nil {
			return ft, err
		}
	}
	tr.resetTotals() // only the live part's training is reported
	t0 := time.Now()
	for i := range live {
		if err := step(i, &live[i], true); err != nil {
			return ft, err
		}
	}
	ft.wall = time.Since(t0)
	ft.residentKeys = pipe.temporal.Len() + pipe.spatial.Len()
	return ft, nil
}

// parseAllocs counts heap allocations per event of raslog.Scanner over
// the request bodies.
func parseAllocs(live []request) float64 {
	var ms runtime.MemStats
	var events []raslog.Event
	n := 0
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := range live {
		events, _ = parseBody(live[i].body, events[:0])
		n += len(events)
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(max(n, 1))
}

// persistPass appends batches to a fresh store with `appenders`
// goroutines: the append (to ticket) is serialized as the sequencer
// serializes it, the commit waits overlap.
func persistPass(dir string, live []request, appenders int, t *tracer) (appendNs float64, waits []time.Duration, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, nil, err
	}
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, nil, err
	}
	defer store.Close()
	if err := store.StartAppend(0); err != nil {
		return 0, nil, err
	}
	if len(live) > persistBatches {
		live = live[:persistBatches]
	}
	var (
		mu      sync.Mutex
		seq     uint64
		next    int
		spent   time.Duration
		events  int
		wg      sync.WaitGroup
		firstEr error
	)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(live) || firstEr != nil {
					mu.Unlock()
					return
				}
				id := next
				next++
				batch := append([]raslog.Event(nil), live[id].events...)
				sp := t.begin("persist.append", 0, id)
				t0 := time.Now()
				_, ticket, err := store.AppendBatch(seq, batch)
				spent += time.Since(t0)
				t.end(sp)
				seq += uint64(len(batch))
				events += len(batch)
				if err != nil {
					firstEr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				sp = t.begin("persist.commit_wait", 0, id)
				t0 = time.Now()
				err = ticket.Wait(context.Background())
				took := time.Since(t0)
				t.end(sp)
				mu.Lock()
				waits = append(waits, took)
				if err != nil && firstEr == nil {
					firstEr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return 0, nil, firstEr
	}
	return float64(spent) / float64(max(events, 1)), waits, nil
}

// servicePass drives a real in-memory stream.Service: history first
// (until it has trained), then the live requests through IngestBatch and
// a draining Close. Bodies are parsed beforehand, so wall covers exactly
// the service's work — admission, sequencer, shards, collector,
// predictor, background training — and calls the time inside the
// IngestBatch calls themselves.
func servicePass(w workload, history, live []request, t *tracer) (wall, calls, cpu time.Duration, events int, err error) {
	svc, err := stream.New(w.streamConfig())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ctx := context.Background()
	parsed := make([][]raslog.Event, 0, len(history)+len(live))
	for _, reqs := range [][]request{history, live} {
		for i := range reqs {
			batch, err := parseBody(reqs[i].body, make([]raslog.Event, 0, len(reqs[i].events)))
			if err != nil {
				svc.Close()
				return 0, 0, 0, 0, err
			}
			parsed = append(parsed, batch)
		}
	}
	for _, batch := range parsed[:len(history)] {
		if _, err := svc.IngestBatch(ctx, batch); err != nil { // takes ownership of batch
			svc.Close()
			return 0, 0, 0, 0, err
		}
	}
	for deadline := time.Now().Add(10 * time.Second); len(svc.Rules()) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	root := t.begin("stream.ingest", 0, -1)
	cpu0 := selfCPU()
	t0 := time.Now()
	for i, batch := range parsed[len(history):] {
		events += len(batch)
		sp := t.begin("stream.ingest_batch", root, i)
		tc := time.Now()
		_, err := svc.IngestBatch(ctx, batch)
		calls += time.Since(tc)
		t.end(sp)
		if err != nil {
			svc.Close()
			return 0, 0, 0, 0, err
		}
	}
	err = svc.Close()
	wall, cpu = time.Since(t0), selfCPU()-cpu0
	t.end(root)
	return wall, calls, cpu, events, err
}

// httpPass measures the client-observed round trip through the service's
// own mux, in-process (httptest), one connection.
func httpPass(w workload, history, live []request) (perBatch time.Duration, err error) {
	svc, err := stream.New(w.streamConfig())
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	srv := httptest.NewServer(stream.NewMux(svc))
	defer srv.Close()
	s := newSender(srv.URL)
	defer s.close()
	post := func(r *request) error {
		plain := *r
		plain.path = "/ingest/batch" // the tenant prefix is the fleet mux's
		status, accepted, err := s.post(&plain)
		if err != nil || status != 200 || accepted != len(r.events) {
			return fmt.Errorf("in-process POST: status %d, accepted %d of %d: %v", status, accepted, len(r.events), err)
		}
		return nil
	}
	for i := range history {
		if err := post(&history[i]); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := range live {
		if err := post(&live[i]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(max(len(live), 1)), nil
}

// fleetPass times tenant activation and the per-request registry lookup.
func fleetPass(w workload, root string) (activateMs, acquireNs float64, err error) {
	if err := os.RemoveAll(root); err != nil {
		return 0, 0, err
	}
	reg, err := fleet.New(fleet.Config{Stream: w.streamConfig(), Root: root})
	if err != nil {
		return 0, 0, err
	}
	defer reg.Close()
	t0 := time.Now()
	for i := 0; i < w.Tenants; i++ {
		h, err := reg.Acquire(fmt.Sprintf("t%02d", i), true)
		if err != nil {
			return 0, 0, err
		}
		h.Release()
	}
	activateMs = float64(time.Since(t0)) / float64(time.Millisecond) / float64(w.Tenants)
	const lookups = 20000
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		h, err := reg.Acquire("t00", false)
		if err != nil {
			return 0, 0, err
		}
		h.Release()
	}
	return activateMs, float64(time.Since(t0)) / lookups, nil
}

// walReplay times Store.Replay over the WAL the daemon left behind.
func walReplay(dir string) (eventsPerS float64, err error) {
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	var from uint64
	if snap, err := store.LoadSnapshot(); err != nil {
		return 0, err
	} else if snap != nil {
		from = snap.Seq
	}
	n := 0
	t0 := time.Now()
	if _, err := store.Replay(from, func(uint64, raslog.Event) error { n++; return nil }); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

// replay is the in-process half of a traced serve-* run: the same
// inputs, each layer called directly, then the budget.
func (r *serveRun) replay() error {
	w, res := r.w, r.res
	// One pipeline's requests: tenant 0 (the only tenant outside fleet).
	pick := func(reqs []request, limit int) []request {
		var out []request
		n := 0
		for i := range reqs {
			if reqs[i].tenant != 0 {
				continue
			}
			if limit > 0 && n >= limit {
				break
			}
			out = append(out, reqs[i])
			n += len(reqs[i].events)
		}
		return out
	}
	history := pick(r.feed.lanes[0].history, 0)
	live := pick(r.feed.lanes[0].live, replayEvents)
	// The rest of the feed (hundreds of MB the collector would otherwise
	// keep marking) is not needed again.
	r.feed, r.lanes, r.ref = nil, nil, nil
	runtime.GC()

	// One discarded pass first, so neither timed pass pays for cold
	// caches and first-touch allocation.
	if _, err := flow(w, history, live, nil); err != nil {
		return fmt.Errorf("warm-up flow: %w", err)
	}
	t := newTracer()
	traced, err := flow(w, history, live, t)
	if err != nil {
		return fmt.Errorf("traced flow: %w", err)
	}
	untraced, err := flow(w, history, live, nil)
	if err != nil {
		return fmt.Errorf("untraced flow: %w", err)
	}
	res.set("bench.trace_overhead_share", (traced.wall-untraced.wall).Seconds()/untraced.wall.Seconds())

	n := float64(traced.events)
	perEvent := func(d time.Duration, events int) float64 {
		return float64(d) / float64(max(events, 1))
	}
	parseNs := perEvent(traced.parse, traced.events)
	filterNs := perEvent(traced.filter, traced.released)
	observeNs := perEvent(traced.observe, traced.kept)
	keptShare := float64(traced.kept) / float64(max(traced.released, 1))
	res.set("raslog.parse_ns_per_event", parseNs)
	res.set("raslog.parse_allocs_per_event", parseAllocs(live))
	res.set("raslog.bytes_per_event", float64(traced.bodyBytes)/n)
	res.set("preprocess.filter_ns_per_event", filterNs)
	res.set("preprocess.kept_share", keptShare)
	res.set("preprocess.resident_keys", float64(traced.residentKeys))
	res.set("predictor.observe_ns_per_event", observeNs)
	res.set("predictor.warnings", float64(traced.warnings))
	tr := traced.tr
	trainNsPerEvent := 0.0
	if tr.pr != nil {
		res.set("predictor.rules", float64(len(tr.pr.Rules())))
	}
	if tr.passes > 0 {
		per := func(d time.Duration) float64 {
			return float64(d) / float64(time.Millisecond) / float64(tr.passes)
		}
		res.set("learner.assoc_ms", per(tr.learners["association"]))
		res.set("learner.statrule_ms", per(tr.learners["statistical"]))
		res.set("learner.probdist_ms", per(tr.learners["distribution"]))
		res.set("learner.incr_advance_ms", per(tr.advance))
		res.set("reviser.revise_ms", per(tr.revise))
		res.set("engine.train_step_ms", per(tr.step))
		res.set("engine.train_events", float64(tr.trainEvents)/float64(tr.passes))
		res.set("predictor.swap_us", 1e3*per(tr.swap))
		trainNsPerEvent = float64(tr.advance+tr.step+tr.swap) / n
	}

	// The real service, in memory, at GOMAXPROCS 1 and 2.
	var ingestNs [3]float64
	var callsP2 time.Duration
	var cpuNsP2 float64
	for _, p := range []int{1, 2} {
		old := runtime.GOMAXPROCS(p)
		wall, calls, cpu, events, err := servicePass(w, history, live, t)
		runtime.GOMAXPROCS(old)
		if err != nil {
			return fmt.Errorf("service pass at GOMAXPROCS %d: %w", p, err)
		}
		ingestNs[p] = perEvent(wall, events)
		callsP2, cpuNsP2 = calls, perEvent(cpu, events)
	}
	res.set("stream.ingest_ns_per_event.p1", ingestNs[1])
	res.set("stream.ingest_ns_per_event.p2", ingestNs[2])
	// Children of the service's work, per ingested event: the filter runs
	// on every released event, the predictor on every survivor, training
	// on its own schedule.
	childrenNs := filterNs + observeNs*keptShare + trainNsPerEvent
	res.set("stream.self_ns_per_event", ingestNs[1]-childrenNs)

	perBatch, err := httpPass(w, history, live)
	if err != nil {
		return err
	}
	batchEvents := n / float64(len(live))
	httpUs := (float64(perBatch) - parseNs*batchEvents - float64(callsP2)/float64(len(live))) / 1e3
	res.set("serve.http_overhead_us_per_batch", httpUs)

	// The budget sums CPU, so the stream layer enters at the CPU time it
	// burned per event with both cores available, as in the daemon; its
	// wall time at GOMAXPROCS 1 and 2 is reported beside it.
	layerSumUs := (parseNs + cpuNsP2) / 1e3
	layerSumUs += httpUs / batchEvents
	res.note("stream layer: %.0f ns CPU per event at GOMAXPROCS 2 (wall %.0f ns at 1, %.0f ns at 2)", cpuNsP2, ingestNs[1], ingestNs[2])
	durableCeiling := 0.0
	if w.Durable {
		a1, waits1, err := persistPass(filepath.Join(r.rc.dir, "replay-wal-a1"), live, 1, t)
		if err != nil {
			return err
		}
		_, waits2, err := persistPass(filepath.Join(r.rc.dir, "replay-wal-a2"), live, 2, nil)
		if err != nil {
			return err
		}
		res.set("persist.append_ns_per_event", a1)
		res.set("persist.commit_wait_ms_p50.a1", pOf(waits1, 0.5))
		res.set("persist.commit_wait_ms_p99.a1", pOf(waits1, 0.99))
		res.set("persist.commit_wait_ms_p50.a2", pOf(waits2, 0.5))
		res.set("persist.commit_wait_ms_p99.a2", pOf(waits2, 0.99))
		layerSumUs += a1 / 1e3
		if p50 := pOf(waits2, 0.5); p50 > 0 {
			// Two connections, one batch each in flight per commit wait.
			durableCeiling = 2 * batchEvents / (p50 / 1e3)
		}

		if !w.Recovery {
			// The WAL the killed daemon left (serve-durable's is replayed
			// inside the recovery tail, before the restart consumes it).
			dir, err := persist.TenantDir(r.stateDir(setupRounds-1), "t00")
			if err != nil {
				return err
			}
			eps, err := walReplay(dir)
			if err != nil {
				return fmt.Errorf("replaying the daemon's WAL: %w", err)
			}
			res.set("persist.replay_events_per_s", eps)
		}
	}
	if w.Fleet {
		activateMs, acquireNs, err := fleetPass(w, filepath.Join(r.rc.dir, "replay-fleet"))
		if err != nil {
			return err
		}
		res.set("fleet.activate_ms", activateMs)
		res.set("fleet.acquire_ns", acquireNs)
		layerSumUs += acquireNs / 1e3 / batchEvents
	}

	// The budget: predicted before looking at capacity_eps, and printed
	// beside it. The CPU ceiling is one core's (the layer sum is CPU time
	// per event, wherever it runs); the durable ceiling is what two
	// connections can commit when each waits out a median fsync.
	cpuCeiling := 1e6 / layerSumUs
	predicted := cpuCeiling
	if durableCeiling > 0 && durableCeiling < predicted {
		predicted = durableCeiling
	}
	res.set("budget.layer_sum_us_per_event", layerSumUs)
	res.set("budget.residual_share", 1-layerSumUs/res.Metrics["cpu_us_per_event"].Value)
	res.set("budget.predicted_capacity_eps", predicted)
	res.note("budget: layer sum %.3f us/event → CPU ceiling %.0f ev/s (one core), durable ceiling %.0f ev/s; predicted %.0f vs measured capacity_eps %.0f",
		layerSumUs, cpuCeiling, durableCeiling, predicted, res.Metrics["capacity_eps"].Value)

	totals := t.totals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := totals[name]
		res.note("span %-22s n=%-6d total %9.3f ms  self %9.3f ms", name, st.Count,
			float64(st.Total)/float64(time.Millisecond), float64(st.Self)/float64(time.Millisecond))
	}
	return t.write(spanFile(r.rc))
}
