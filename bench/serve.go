package main

// The three serve-* workloads: setup → paced-lo → paced-hi → saturate →
// idle retrains → (serve-durable) kill -9 recovery tail, against a
// freshly built cmd/serve on a fresh state directory, with every daemon
// counter reconciled against the reference after every phase.

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// setupRounds is how many times daemon start + warm-up is repeated so
// setup_s reports a median; the last round's daemon is the one measured.
const setupRounds = 3

// idleRetrains is how many POST /retrain passes retrain_ms is the median of.
const idleRetrains = 25

type serveRun struct {
	rc   runConfig
	w    workload
	res  *runResult
	feed *feed
	ref  *reference

	d     *daemon
	lanes []*laneRun
	admin *http.Client // scrapes, /retrain: not a sender connection
	fedTo []int64      // per lane: live requests already in the reference
	last  snapshot     // the latest quiesced scrape
	// tailStats is the recovery tail's load, counted into attempted/failed.
	tailStats []phaseStats
	tracer    *scraper
	warn      *warnReader
}

func runServe(rc runConfig) (*runResult, error) {
	w := rc.w
	r := &serveRun{rc: rc, w: w, res: newResult(rc), ref: newReference(w),
		admin: &http.Client{Timeout: 30 * time.Second}}
	res := r.res
	defer r.stopDaemon() // whichever daemon is running when this returns
	t0 := time.Now()
	f, err := buildFeed(w, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	r.feed = f
	res.set("bgsim.generate_events_per_s", float64(f.genEvents)/f.genDuration.Seconds())
	feedS := time.Since(t0).Seconds()
	if f.outOfOrder > 0 {
		res.note("feed: %d of %d live events (%.2f%%) are sent out of order", f.outOfOrder, f.liveEvents,
			100*float64(f.outOfOrder)/float64(f.liveEvents))
	}
	if f.thinned > 0 {
		res.note("feed: %d events dropped from storms denser than three quarters of the reorder buffer's limit", f.thinned)
	}

	// Daemon start + warm-up to the first trained rule set, several times
	// on fresh state directories; the reference replays the history once.
	var warm []float64
	for round := 0; round < setupRounds; round++ {
		r.stopDaemon()
		tw := time.Now()
		if err := r.startAndWarm(round); err != nil {
			return nil, err
		}
		warm = append(warm, time.Since(tw).Seconds())
	}
	for _, l := range f.lanes {
		r.ref.feed(l.history)
	}
	base, err := r.quiesce("warm-up")
	if err != nil {
		return nil, err
	}
	r.reconcile("warm-up", base, base)
	res.set("setup_s", rc.buildS+feedS+median(warm))
	res.set("bench.build_s", rc.buildS)
	res.note("setup: build %.2fs + feed %.2fs + daemon start and warm-up %.2fs (median of %d: %v)",
		rc.buildS, feedS, median(warm), setupRounds, warm)

	if rc.trace {
		r.warn = &warnReader{}
		r.tracer = startScraper(r.d)
	}

	// Timed phases.
	secs := func(share float64) time.Duration {
		return time.Duration(share * rc.seconds * float64(time.Second))
	}
	reserve := 0
	if w.Recovery {
		reserve = r.tailReserve()
	}
	phases := []struct {
		name string
		rate float64
		dur  time.Duration
	}{
		{"paced-lo", w.LoRate, secs(loShare)},
		{"paced-hi", w.HiRate, secs(hiShare)},
		{"saturate", 0, secs(satShare)},
	}
	var (
		stats                  []phaseStats
		reports                []phaseReport
		cpuTotal               time.Duration
		selfCPU0               = selfCPU()
		wall0                  = time.Now()
		hostTotal0, hostSteal0 = hostCPU()
		prev                   = base
		acked                  int64
	)
	for _, ph := range phases {
		cpu0, _ := procCPU(r.d.pid())
		tp := time.Now()
		ps := runPhase(ph.name, r.lanes, ph.rate, ph.dur, 0, reserve, r.warn)
		snap, err := r.quiesce(ph.name)
		if err != nil {
			return nil, err
		}
		cpu1, _ := procCPU(r.d.pid())
		busy := time.Since(tp)
		r.feedReference()
		ok := r.reconcile(ph.name, prev, snap)
		reports = append(reports, r.reportPhase(ps, ok, (cpu1-cpu0).Seconds()/busy.Seconds()/float64(runtime.NumCPU())))
		stats = append(stats, ps)
		cpuTotal += cpu1 - cpu0
		acked += ps.Acked
		prev = snap
	}
	timedWall := time.Since(wall0)
	clientCPU := selfCPU() - selfCPU0
	if r.tracer != nil {
		r.tracer.stop(res)
		res.set("stream.warnings_read_ms_p95", pOf(r.warn.took, 0.95))
	}
	lo, hi, sat := stats[0], stats[1], stats[2]

	res.set("capacity_eps", float64(sat.Acked)/sat.Wall.Seconds())
	res.set("cpu_us_per_event", cpuTotal.Seconds()*1e6/float64(acked))
	res.set("bench.client_cpu_util", clientCPU.Seconds()/timedWall.Seconds()/float64(runtime.NumCPU()))
	res.setSteal(hostTotal0, hostSteal0)
	r.setAck("lo", reports[0])
	r.setAck("hi", reports[1])
	res.set("slo_rate_eps", sloRate(reports[0], reports[1]))
	var late []time.Duration
	late = append(append(late, lo.Late...), hi.Late...)
	res.set("bench.generator_late_ms_p99", pOf(late, 0.99))
	r.setDeltas(base, prev)

	// Idle retrains.
	var retrains []float64
	retrainURL := r.d.base + "/retrain"
	if w.Fleet {
		retrainURL = r.d.base + "/t/t00/retrain"
	}
	for i := 0; i < idleRetrains; i++ {
		tr := time.Now()
		if err := postJSON(r.admin, retrainURL, nil); err != nil {
			res.fail("retrain", "post", err.Error())
			break
		}
		retrains = append(retrains, float64(time.Since(tr))/float64(time.Millisecond))
	}
	res.set("retrain_ms", median(retrains))
	res.note("idle retrains (ms): %.2f", retrains)

	unrecovered := int64(0)
	if w.Recovery {
		if unrecovered, err = r.recoveryTail(prev); err != nil {
			return nil, err
		}
	}
	if rss, err := procPeakRSS(r.d.pid()); err == nil {
		res.raise("rss_peak_mb", rss)
	}
	if w.Durable {
		res.set("persist.state_dir_bytes", float64(dirBytes(r.stateDir(setupRounds-1))))
	}

	// fail_share and the driver's attempted/failed: events, over every
	// timed phase and the recovery tail.
	ref, _, _ := r.ref.totals()
	var attempted, failed int64
	for _, ps := range append(stats, r.tailStats...) {
		attempted += ps.Sent
		failed += ps.FailedEvents
	}
	unexpectedLate := int64(r.last["stream_late_dropped_total"]) - ref.LateDropped
	failed += max(0, unexpectedLate) + unrecovered
	res.Attempted, res.Failed = attempted, failed
	res.set("fail_share", float64(failed)/float64(max(attempted, 1)))
	if failed > 0 {
		res.fail("run", "fail_share", fmt.Sprintf("%d of %d events failed", failed, attempted))
	}
	if rc.trace {
		r.stopDaemon() // the replay reads the WAL the daemon leaves behind
		if err := r.replay(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *serveRun) stateDir(round int) string {
	return filepath.Join(r.rc.dir, fmt.Sprintf("state-%d", round))
}

// startAndWarm launches a daemon on a fresh state directory and feeds it
// the history until every tenant holds a trained rule set.
func (r *serveRun) startAndWarm(round int) error {
	dir := r.stateDir(round)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, _, err := startDaemon(r.rc.serveBin, r.w.serveArgs(dir), filepath.Join(r.rc.dir, "serve.log"))
	if err != nil {
		return err
	}
	r.d = d
	r.connect()
	hist := make([]*laneRun, len(r.lanes))
	for i, l := range r.lanes {
		hist[i] = newLaneRun(r.feed.lanes[i].history, l.senders[:1])
	}
	ps := runPhase("warm-up", hist, 0, time.Minute, 0, 0, nil)
	if ps.FailedEvents > 0 || ps.Acked != ps.Sent {
		return fmt.Errorf("warm-up: %d of %d history events not accepted", ps.Sent-ps.Acked, ps.Sent)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, _, err := d.scrape(r.admin)
		if err != nil {
			return err
		}
		if s["train_passes_total"] >= float64(r.w.Tenants) && s["stream_retraining"] == 0 && s["stream_rules"] > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: no trained rule set after 30s (train_passes_total %v of %d, rules %v)",
				s["train_passes_total"], r.w.Tenants, s["stream_rules"])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// connect opens the sender connections — two in total, whatever the
// workload — and binds them to the live lanes.
func (r *serveRun) connect() {
	for _, l := range r.lanes {
		for _, s := range l.senders {
			s.close()
		}
	}
	n := len(r.feed.lanes)
	r.lanes = make([]*laneRun, n)
	r.fedTo = make([]int64, n)
	for i := range r.lanes {
		var senders []*sender
		for k := 0; k < 2/n; k++ {
			senders = append(senders, newSender(r.d.base))
		}
		r.lanes[i] = newLaneRun(r.feed.lanes[i].live, senders)
	}
}

func (r *serveRun) stopDaemon() {
	if r.d == nil {
		return
	}
	r.d.kill()
	r.d = nil
}

// feedReference pushes every request dispatched since the last call.
func (r *serveRun) feedReference() {
	for i, l := range r.lanes {
		upTo := l.cursor()
		r.ref.feed(l.reqs[r.fedTo[i]:upTo])
		r.fedTo[i] = upTo
	}
}

// quiesce waits until the daemon has nothing in flight: queues empty, no
// training pass running, and two successive scrapes that agree.
func (r *serveRun) quiesce(phase string) (snapshot, error) {
	deadline := time.Now().Add(20 * time.Second)
	var prev snapshot
	for {
		t0 := time.Now()
		s, _, err := r.d.scrape(r.admin)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", phase, err)
		}
		if prev != nil && s.queuesEmpty() && s["stream_retraining"] == 0 &&
			s["stream_sequenced_total"] == prev["stream_sequenced_total"] &&
			s["stream_processed_total"] == prev["stream_processed_total"] &&
			s["stream_late_dropped_total"] == prev["stream_late_dropped_total"] &&
			s["train_passes_total"] == prev["train_passes_total"] &&
			s["stream_sequenced_total"]+s["stream_late_dropped_total"]+s["stream_reorder_depth"] == s["stream_ingested_total"] {
			r.last = s
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("%s: daemon did not quiesce in 20s", phase)
		}
		prev = s
		// A fleet exposition takes tens of ms to render; do not keep the
		// daemon busy rendering while its CPU is being accounted.
		time.Sleep(max(5*time.Millisecond, 2*time.Since(t0)))
	}
}

// reconcile checks the daemon's counters against the reference. A
// violated check fails the phase: its numbers are not data points.
func (r *serveRun) reconcile(phase string, before, after snapshot) bool {
	ref, held, _ := r.ref.totals()
	ok := true
	eq := func(name string, got float64, want int64) {
		if int64(got) != want {
			ok = false
			r.res.fail(phase, name, fmt.Sprintf("daemon %d, reference %d", int64(got), want))
		} else {
			r.res.pass(phase, name)
		}
	}
	eq("ingested == sent", after["stream_ingested_total"], ref.Ingested)
	eq("sequenced == reference", after["stream_sequenced_total"], ref.Sequenced)
	eq("late_dropped == injected", after["stream_late_dropped_total"], ref.LateDropped)
	eq("reorder_held == reference", after["stream_reorder_depth"], held)
	eq("sequenced + late_dropped + reorder_held == ingested",
		after["stream_sequenced_total"]+after["stream_late_dropped_total"]+after["stream_reorder_depth"], ref.Ingested)
	eq("reorder_overflow == 0", after["stream_reorder_overflow_total"]+float64(ref.Overflow), 0)
	eq("after_temporal == reference", after["stream_after_temporal_total"], ref.AfterTemporal)
	eq("processed == reference", after["stream_processed_total"], ref.Processed)
	eq("fatals == reference", after["stream_fatals_total"], ref.Fatals)
	eq("no refusals", after["stream_ingest_rejected_total"]+after["fleet_ingest_throttled_total"]+
		after["stream_wal_errors_total"]+after["train_errors_total"]-before["train_errors_total"], 0)
	return ok
}

func (r *serveRun) reportPhase(ps phaseStats, reconciled bool, cpuUtil float64) phaseReport {
	lat := sortedMs(ps.Lat)
	p50, _ := percentile(lat, 0.5)
	p99, p99ok := percentile(lat, 0.99)
	pr := phaseReport{
		Name: ps.Name, OfferedEPS: ps.Rate, WallS: ps.Wall.Seconds(),
		Requests: ps.Requests, Events: ps.Acked, AchievedEPS: float64(ps.Acked) / ps.Wall.Seconds(),
		P50Ms: p50, P99Ms: p99, P99Supported: p99ok,
		LateP99Ms: pOf(ps.Late, 0.99), LatenessGrowing: latenessGrowing(ps.Late),
		CPUUtil: cpuUtil,
		Refused: ps.Refused429 + ps.Refused503, Errors: ps.TransportErrs + ps.OtherErrs,
		Failed: !reconciled || ps.FailedEvents > 0,
	}
	r.res.Phases = append(r.res.Phases, pr)
	if ps.FailedEvents > 0 {
		r.res.fail(ps.Name, "every request acked", fmt.Sprintf("%d events refused or lost (429 %d, 503 %d, transport %d, other %d)",
			ps.FailedEvents, ps.Refused429, ps.Refused503, ps.TransportErrs, ps.OtherErrs))
	}
	switch ps.Name {
	case "paced-lo":
		r.res.set("serve.cpu_util.lo", cpuUtil)
	case "paced-hi":
		r.res.set("serve.cpu_util.hi", cpuUtil)
	case "saturate":
		r.res.set("serve.cpu_util.sat", cpuUtil)
	}
	return pr
}

func (r *serveRun) setAck(tag string, pr phaseReport) {
	r.res.set("ack_p50_ms."+tag, pr.P50Ms)
	r.res.set("ack_p99_ms."+tag, pr.P99Ms)
	r.res.set("ack_samples."+tag, float64(pr.Requests))
	if !pr.P99Supported {
		r.res.note("ack_p99_ms.%s rests on %d samples: fewer than ten beyond the percentile", tag, pr.Requests)
	}
}

// sloRate is the highest paced rate that met the latency limit with no
// refusals, no failed check and no growing generator backlog.
func sloRate(phases ...phaseReport) float64 {
	best := 0.0
	for _, pr := range phases {
		if pr.P99Ms <= sloP99Ms && !pr.Failed && !pr.LatenessGrowing && pr.OfferedEPS > best {
			best = pr.OfferedEPS
		}
	}
	return best
}

// setDeltas derives the /metrics-delta layer metrics over the timed
// phases (warm-up excluded).
func (r *serveRun) setDeltas(a, b snapshot) {
	res := r.res
	d := func(k string) float64 { return b[k] - a[k] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	stage := func(name string) float64 {
		return 1e6 * ratio(d(`stream_stage_latency_seconds_sum{stage="`+name+`"}`),
			d(`stream_stage_latency_seconds_count{stage="`+name+`"}`))
	}
	res.set("stream.sequenced", d("stream_sequenced_total"))
	res.set("stream.late_dropped", d("stream_late_dropped_total"))
	res.set("stream.reorder_overflow", d("stream_reorder_overflow_total"))
	res.set("stream.rejected", d("stream_ingest_rejected_total"))
	res.set("stream.backpressure_s", d("stream_ingest_backpressure_seconds_sum"))
	res.set("stream.stage_sequencer_us_per_batch", stage("sequencer"))
	res.set("stream.stage_shard_us_per_event", stage("shard"))
	res.set("stream.stage_collector_us_per_event", stage("collector"))
	res.set("engine.retrains", d("train_passes_total"))
	if r.w.Durable {
		res.set("persist.wal_bytes_per_event", ratio(d("stream_wal_bytes_total"), d("stream_sequenced_total")))
		res.set("persist.snapshots", d("stream_snapshots_total"))
		res.set("persist.snapshot_ms", 1e3*ratio(d("stream_snapshot_latency_seconds_sum"), d("stream_snapshot_latency_seconds_count")))
		res.set("persist.snapshot_bytes", ratio(d("stream_snapshot_bytes_total"), d("stream_snapshots_total")))
	}
	if r.w.Fleet {
		res.set("fleet.throttled", d("fleet_ingest_throttled_total"))
		res.set("fleet.tenants_active", b["fleet_tenants_active"])
	}
}

// tailReserve is how many requests per lane the saturate phase must
// leave for the recovery tail.
func (r *serveRun) tailReserve() int {
	reserve := 0
	for _, l := range r.lanes {
		n, events := 0, 0
		for i := len(l.reqs) - 1; i >= 0 && events < recoveryTailEvents/len(r.lanes); i-- {
			events += len(l.reqs[i].events)
			n++
		}
		reserve = max(reserve, n)
	}
	return reserve
}

// recoveryTail forces a snapshot, sends 100 K more events, records the
// ledger, kills the daemon with SIGKILL, restarts it on the same
// directory and checks that everything acknowledged came back. Returns
// the acked-but-unrecovered event count.
func (r *serveRun) recoveryTail(prev snapshot) (int64, error) {
	res := r.res
	// The idle retrains above left a snapshot pending; it is written at
	// the collector's next release, i.e. on the tail's first events.
	ps := runPhase("recovery-tail", r.lanes, 0, time.Minute, recoveryTailEvents, 0, nil)
	r.tailStats = append(r.tailStats, ps)
	ledger, err := r.quiesce("recovery-tail")
	if err != nil {
		return 0, err
	}
	r.feedReference()
	ok := r.reconcile("recovery-tail", prev, ledger)
	r.reportPhase(ps, ok, 0)
	if ledger["stream_snapshots_total"] <= prev["stream_snapshots_total"] {
		res.fail("recovery-tail", "snapshot forced", "POST /retrain did not lead to a snapshot")
	}
	if rss, err := procPeakRSS(r.d.pid()); err == nil {
		res.raise("rss_peak_mb", rss)
	}

	r.stopDaemon()
	dir := r.stateDir(setupRounds - 1)
	if r.rc.trace {
		// Off the recovery clock: the same log the restart is about to read.
		eps, err := walReplay(dir)
		if err != nil {
			return 0, fmt.Errorf("replaying the daemon's WAL: %w", err)
		}
		res.set("persist.replay_events_per_s", eps)
	}
	d, took, err := startDaemon(r.rc.serveBin, r.w.serveArgs(dir), filepath.Join(r.rc.dir, "serve.log"))
	if err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	r.d = d
	res.set("recovery_s", took.Seconds())
	after, _, err := d.scrape(r.admin)
	if err != nil {
		return 0, err
	}
	res.set("persist.recovered_events", after["stream_replayed_total"])
	// Every acked batch was fsynced before its 200, so the whole sequenced
	// ledger must be back; only the reorder buffer's held events (accepted,
	// never acked as durable) may be gone.
	unrecovered := int64(ledger["stream_sequenced_total"] - after["stream_sequenced_total"])
	for _, k := range []string{"stream_sequenced_total", "stream_after_temporal_total", "stream_processed_total", "stream_fatals_total"} {
		if after[k] != ledger[k] {
			res.fail("recovery", k+" recovered", fmt.Sprintf("before kill %d, after restart %d", int64(ledger[k]), int64(after[k])))
		} else {
			res.pass("recovery", k+" recovered")
		}
	}
	return max(0, unrecovered), nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// scraper samples /metrics at 2 Hz during a traced run's timed phases:
// the cost of a scrape, and how deep the queues and the reorder buffer
// get between the phase-boundary scrapes.
type scraper struct {
	d    *daemon
	quit chan struct{}
	wg   sync.WaitGroup

	took                 []time.Duration
	bytes                int
	maxQueue, maxReorder float64
}

func startScraper(d *daemon) *scraper {
	s := &scraper{d: d, quit: make(chan struct{})}
	client := &http.Client{Timeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			snap, n, err := d.scrape(client)
			if err != nil {
				continue
			}
			s.took = append(s.took, time.Since(t0))
			s.bytes = n
			s.maxQueue = max(s.maxQueue, snap.queueDepth())
			s.maxReorder = max(s.maxReorder, snap["stream_reorder_depth"])
		}
	}()
	return s
}

func (s *scraper) stop(res *runResult) {
	close(s.quit)
	s.wg.Wait()
	res.set("obsv.scrape_ms_p95", pOf(s.took, 0.95))
	res.set("obsv.scrape_bytes", float64(s.bytes))
	res.set("stream.queue_depth_max", s.maxQueue)
	res.set("stream.reorder_depth_max", s.maxReorder)
}
