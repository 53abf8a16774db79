//go:build crash && linux

package main

// The crash harness: the daemon's contracts across kill -9, proven on the
// real binary over real HTTP — ack implies durable, recovery resumes where
// the crash left off, and a promoted standby keeps what it replicated.
// The unit suites prove byte-level state equivalence in process
// (internal/stream/recover_test.go, follower_test.go); this file proves
// the process boundary. TestMain builds cmd/serve once, every daemon
// listens on an ephemeral loopback port read back from its "listening on"
// log line, and the feed is generated in process. It sits behind the
// crash build tag so tier-1 stays fast, and needs Linux for the parent-
// death signal that keeps a dying test from orphaning its daemons:
//
//	go test -tags crash ./cmd/serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/fleet"
	"repro/internal/httpx"
	"repro/internal/raslog"
	"repro/internal/stream"
)

var (
	serveBin string // the cmd/serve binary TestMain builds
	theFeed  *feed
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "serve-crash")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "serve")
	code := 1
	if out, err := exec.Command("go", "build", "-o", serveBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cmd/serve: %v\n%s", err, out)
	} else if theFeed, err = newFeed(); err != nil {
		fmt.Fprintln(os.Stderr, "generate feed:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// feed is the generated SDSC log (seed 5, 8 weeks, raw scale 0.05),
// readable as an endless sequence: line i is event i mod len, shifted by
// whole laps of spanMs so stream time keeps rising across the wrap.
type feed struct {
	events []raslog.Event
	spanMs int64
}

func newFeed() (*feed, error) {
	g, err := bgsim.NewGenerator(bgsim.SDSC(5).Scaled(8, 0.05))
	if err != nil {
		return nil, err
	}
	l, err := g.Generate()
	if err != nil {
		return nil, err
	}
	if l.Len() == 0 {
		return nil, errors.New("generated feed is empty")
	}
	span := l.Events[l.Len()-1].Time - l.Events[0].Time
	// A whole number of seconds, because the wire codec carries seconds: a
	// sub-second lap would let a lap's first event tie the previous last.
	return &feed{events: l.Events, spanMs: (span/1000 + 1) * 1000}, nil
}

func (f *feed) len() int64 { return int64(len(f.events)) }

// encode renders lines [from, from+n) in the text codec.
func (f *feed) encode(from, n int64) []byte {
	l := raslog.NewLog("crash", int(n))
	for i := from; i < from+n; i++ {
		e := f.events[i%f.len()]
		e.Time += i / f.len() * f.spanMs
		l.Append(e)
	}
	var buf bytes.Buffer
	raslog.WriteLog(&buf, l) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

var client = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8},
}

// postFeed posts feed lines [from, from+n) to the ingest endpoint url and
// returns once all of them are acked. On 429 or 503 it waits out
// Retry-After and resumes from the first line the daemon did not accept.
func postFeed(url string, from, n int64) error {
	for sent := int64(0); sent < n; {
		resp, err := client.Post(url, "text/plain",
			bytes.NewReader(theFeed.encode(from+sent, n-sent)))
		if err != nil {
			return err
		}
		var ack struct {
			Accepted int64  `json:"accepted"`
			Error    string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("ingest ack (HTTP %d): %w", resp.StatusCode, err)
		}
		sent += ack.Accepted
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(httpx.RetryAfter(resp.Header, 250*time.Millisecond, 5*time.Second))
		default:
			return fmt.Errorf("ingest HTTP %d: %s", resp.StatusCode, ack.Error)
		}
	}
	return nil
}

// get returns the body of a 200 response to GET url.
func get(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

func fetchJSON(url string, v any) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// mustPost posts feed lines [from, from+n) to base's /ingest/batch.
func mustPost(t *testing.T, base string, from, n int64) {
	t.Helper()
	if err := postFeed(base+"/ingest/batch", from, n); err != nil {
		t.Fatal(err)
	}
}

func getStats(t *testing.T, base string) stream.Stats {
	t.Helper()
	var st stream.Stats
	if err := fetchJSON(base+"/stats", &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getText(t *testing.T, url string) string {
	t.Helper()
	body, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metric returns the value of the unlabeled series name in a Prometheus
// text exposition, and whether it is there.
func metric(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// settle polls base's /stats until sequenced stops moving and returns the
// last read: the pipeline has applied everything the reorder buffer let go.
func settle(t *testing.T, base string) stream.Stats {
	t.Helper()
	prev := getStats(t, base)
	waitFor(t, 30*time.Second, "the pipeline to settle", func() bool {
		time.Sleep(100 * time.Millisecond)
		cur := getStats(t, base)
		still := cur.Sequenced == prev.Sequenced
		prev = cur
		return still
	})
	return prev
}

// waitFor polls ok until it holds, failing the test after limit.
func waitFor(t *testing.T, limit time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("gave up after %v waiting for %s", limit, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// logBuffer collects a daemon's output; the exec copier writes it while
// the test reads it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running serve process.
type daemon struct {
	url    string // http://127.0.0.1:<port>
	log    *logBuffer
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned into err
	err    error
}

var listening = regexp.MustCompile(`serve: listening on (\S+) `)

// startDaemon runs the serve binary on an ephemeral loopback port with
// short training windows (3-week initial train, 2-week retrain) plus
// args, and returns once its log names the port. The test's cleanup kills
// it, and prints its log if the test failed.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{log: &logBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(serveBin, append([]string{"-addr", "127.0.0.1:0", "-train", "3", "-retrain", "2"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// A test binary that dies before its cleanup (a -timeout panic, a
	// kill) takes its daemons with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			t.Logf("log of serve %v:\n%s", args, d.log)
		}
	})
	waitFor(t, 30*time.Second, "the daemon to listen", func() bool {
		select {
		case <-d.exited:
			t.Fatalf("serve %v exited during start-up: %v", args, d.err)
		default:
		}
		m := listening.FindStringSubmatch(d.log.String())
		if m != nil {
			d.url = "http://" + m[1]
		}
		return m != nil
	})
	return d
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
}

// sweep is the closed-loop client of the mid-sweep phases. Each round,
// conns connections post the next conns batches of the feed from one
// shared cursor to route. Once every batch is acked and no request is in
// flight, it reads sequenced from /stats into the ledger. On either
// ingest route every event counted there was released by a request whose
// 200 followed the covering fsync, so a crash may not lose any of them.
type sweep struct {
	base   string
	route  string // /ingest or /ingest/batch
	conns  int
	batch  int64
	cursor int64 // first line of the next round; only run moves it
	ledger atomic.Int64
	done   chan error // run's error, once a request has failed
}

// run posts rounds until a request fails, as every request does once
// the daemon is killed, and returns that error.
func (s *sweep) run() error {
	for {
		errs := make([]error, s.conns)
		var wg sync.WaitGroup
		for i := range s.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = postFeed(s.base+s.route, s.cursor+int64(i)*s.batch, s.batch)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		s.cursor += int64(s.conns) * s.batch
		var st stream.Stats
		if err := fetchJSON(s.base+"/stats", &st); err != nil {
			return err
		}
		s.ledger.Store(st.Sequenced)
	}
}

// start runs the sweep in the background.
func (s *sweep) start() {
	s.done = make(chan error, 1)
	go func() { s.done <- s.run() }()
}

// reached reports whether the ledger has reached floor, failing the test
// if the sweep stopped before anything killed its daemon.
func (s *sweep) reached(t *testing.T, floor int64) bool {
	t.Helper()
	select {
	case err := <-s.done:
		t.Fatalf("sweep stopped before the kill: %v", err)
	default:
	}
	return s.ledger.Load() >= floor
}

// TestCrashResume: half the feed, kill -9, restart on the same state, the
// other half. Everything sequenced before the kill survives it, and the
// restarted daemon takes the rest without losing or double-counting.
func TestCrashResume(t *testing.T) {
	state := t.TempDir()
	half := theFeed.len() / 2
	rest := theFeed.len() - half

	d := startDaemon(t, "-state-dir", state)
	mustPost(t, d.url, 0, half)
	pre := settle(t, d.url)
	d.kill()

	d = startDaemon(t, "-state-dir", state)
	if !strings.Contains(d.log.String(), "serve: recovered from") {
		t.Error("no recovery line in the daemon log")
	}
	rec := getStats(t, d.url)
	t.Logf("sequenced %d before the kill, recovered %d", pre.Sequenced, rec.Sequenced)
	if rec.Recovery == nil {
		t.Error("/stats has no recovery block after the restart")
	}
	if rec.Sequenced < pre.Sequenced {
		t.Errorf("recovered %d sequenced events, %d were sequenced and acked before the kill", rec.Sequenced, pre.Sequenced)
	}

	mustPost(t, d.url, half, rest)
	fin := settle(t, d.url)
	if lo, hi := rec.Ingested+rest, theFeed.len(); fin.Ingested < lo || fin.Ingested > hi {
		t.Errorf("ingested %d after the second half, want within [%d, %d]", fin.Ingested, lo, hi)
	}
	if fin.Processed <= 0 {
		t.Errorf("processed %d after the whole feed", fin.Processed)
	}
	var warns []json.RawMessage
	if err := fetchJSON(d.url+"/warnings?n=5", &warns); err != nil {
		t.Error(err)
	}
}

// TestCrashIncrementalRestore: a kill -9 after the first training pass
// must not cost a rebuild. The restarted daemon restores the incremental
// sufficient statistics from its snapshot, and its next pass delta-applies.
func TestCrashIncrementalRestore(t *testing.T) {
	state := t.TempDir()
	half := theFeed.len() / 2
	const nudge = 100

	d := startDaemon(t, "-state-dir", state)
	mustPost(t, d.url, 0, half)
	settle(t, d.url)
	// The 3-week initial training fires mid-feed but runs in the background.
	waitFor(t, 30*time.Second, "the first training pass", func() bool {
		return len(getStats(t, d.url).Retrains) > 0
	})
	// The snapshot after a pass is written at the pipeline's next release
	// point, so a drained feed leaves it pending: nudge a few events through.
	mustPost(t, d.url, half, nudge)
	waitFor(t, 30*time.Second, "a durable snapshot", func() bool {
		n, _ := metric(getText(t, d.url+"/metrics"), "stream_snapshots_total")
		return n >= 1
	})
	// Kill at once: events, and possibly a training pass, are in flight.
	mustPost(t, d.url, half+nudge, theFeed.len()-half-nudge)
	d.kill()

	d = startDaemon(t, "-state-dir", state)
	if rec := getStats(t, d.url).Recovery; rec == nil || !rec.IncrRestored {
		t.Fatalf("recovery did not restore the incremental state: %+v", rec)
	}
	// WAL replay may still run its own catch-up pass; /retrain answers 409
	// while one is in flight.
	var rr stream.RetrainRecord
	waitFor(t, 30*time.Second, "POST /retrain to succeed", func() bool {
		resp, err := client.Post(d.url+"/retrain", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&rr) == nil
	})
	if rr.Err != "" {
		t.Fatalf("retrain after the restart failed: %s", rr.Err)
	}
	if rr.Incr == nil || rr.Incr.Rebuild {
		t.Errorf("retrain after the restart was a cold rebuild: %+v", rr.Incr)
	}
}

// TestCrashMidSweep kills -9 in the middle of a sweep, at one connection
// and at eight, and on the /ingest route at one. The recovered daemon
// must hold the whole ledger.
func TestCrashMidSweep(t *testing.T) {
	t.Run("conns=1", func(t *testing.T) {
		midSweep(t, &sweep{route: "/ingest/batch", conns: 1, batch: 128}, 2048)
	})
	t.Run("route=/ingest", func(t *testing.T) {
		midSweep(t, &sweep{route: "/ingest", conns: 1, batch: 128}, 2048)
	})
	// Eight connections interleave their batches at the wire, so the
	// daemon gets a reorder tolerance far beyond the feed's span, and
	// the reorder buffer's size cap (4096) becomes its only release
	// mechanism. The floor makes the sweep push well past that cap before
	// the kill; below it, sequenced stays 0 and the check proves nothing.
	t.Run("conns=8", func(t *testing.T) {
		midSweep(t, &sweep{route: "/ingest/batch", conns: 8, batch: 256}, 8192, "-reorder", "2000000000")
	})
}

func midSweep(t *testing.T, sw *sweep, floor int64, args ...string) {
	args = append([]string{"-state-dir", t.TempDir()}, args...)
	d := startDaemon(t, args...)
	sw.base = d.url
	sw.start()
	waitFor(t, 60*time.Second, fmt.Sprintf("a ledger of %d events", floor), func() bool {
		return sw.reached(t, floor)
	})
	d.kill()
	<-sw.done
	ledger := sw.ledger.Load()

	d = startDaemon(t, args...)
	rec := getStats(t, d.url).Sequenced
	t.Logf("ledger %d, recovered %d", ledger, rec)
	if rec < ledger {
		t.Errorf("recovered %d sequenced events < ledger %d: an acked batch was lost", rec, ledger)
	}
}

// TestCrashFleet: two tenants in one -fleet daemon, kill -9, restart.
// Both come back from their own state directories with everything they
// had sequenced, and SIGTERM then closes every tenant and exits 0.
func TestCrashFleet(t *testing.T) {
	state := t.TempDir()
	half := theFeed.len() / 2
	tenants := []struct {
		id        string
		from, n   int64
		sequenced int64 // before the kill
		ingested  int64
	}{{id: "alpha", n: half}, {id: "beta", from: half, n: theFeed.len() - half}}

	d := startDaemon(t, "-fleet", "-state-dir", state)
	for i := range tenants {
		// The first POST to a tenant's routes creates it.
		mustPost(t, d.url+"/t/"+tenants[i].id, tenants[i].from, tenants[i].n)
	}
	for i := range tenants {
		st := settle(t, d.url+"/t/"+tenants[i].id)
		if st.Sequenced == 0 {
			t.Fatalf("%s sequenced nothing before the kill", tenants[i].id)
		}
		tenants[i].sequenced, tenants[i].ingested = st.Sequenced, st.Ingested
	}
	d.kill()

	d = startDaemon(t, "-fleet", "-state-dir", state)
	var list []fleet.TenantInfo
	if err := fetchJSON(d.url+"/tenants", &list); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, ti := range list {
		known[ti.ID] = true
	}
	for _, tn := range tenants {
		if !known[tn.id] {
			t.Errorf("/tenants lacks %s after the restart: %+v", tn.id, list)
			continue
		}
		st := getStats(t, d.url+"/t/"+tn.id)
		if st.Recovery == nil {
			t.Errorf("%s: /stats has no recovery block after the restart", tn.id)
		}
		if st.Sequenced < tn.sequenced || st.Ingested > tn.ingested {
			t.Errorf("%s: recovered sequenced %d, ingested %d; before the kill sequenced %d, ingested %d",
				tn.id, st.Sequenced, st.Ingested, tn.sequenced, tn.ingested)
		}
	}

	metrics := getText(t, d.url+"/metrics")
	if !strings.Contains(metrics, `tenant="alpha"`) {
		t.Error(`/metrics has no tenant="alpha" series`)
	}
	if _, ok := metric(metrics, "fleet_ingested_total"); !ok {
		t.Error("/metrics has no fleet_ingested_total rollup")
	}
	// The unprefixed routes alias the default tenant.
	getText(t, d.url+"/stats")
	getText(t, d.url+"/warnings?all=1&n=5")

	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		t.Fatal("no exit within 30s of SIGTERM")
	}
	if d.err != nil {
		t.Errorf("exit after SIGTERM: %v", d.err)
	}
	if !strings.Contains(d.log.String(), "serve: fleet drained") {
		t.Error("no fleet-drained line after SIGTERM")
	}
}

// TestCrashFailover: a standby tails the leader while a sweep drives it.
// Once the standby has replicated the ledger the leader is killed -9
// mid-sweep; the promoted standby holds the ledger and takes writes.
func TestCrashFailover(t *testing.T) {
	leader := startDaemon(t, "-state-dir", t.TempDir())
	standby := startDaemon(t, "-state-dir", t.TempDir(),
		"-follow", leader.url, "-follow-poll", "25ms")
	if role := getStats(t, standby.url).Role; role != "standby" {
		t.Fatalf("follower reports role %q, want standby", role)
	}
	// A standby refuses writes with the 503 resume contract.
	resp, err := client.Post(standby.url+"/ingest/batch", "text/plain", bytes.NewReader(theFeed.encode(0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby ingest returned HTTP %d, want 503", resp.StatusCode)
	}

	sw := &sweep{base: leader.url, route: "/ingest/batch", conns: 1, batch: 128}
	sw.start()
	waitFor(t, 60*time.Second, "a ledger of 2048 events", func() bool {
		return sw.reached(t, 2048)
	})
	// Replication is asynchronous: an ack promises the leader's disk, not
	// the standby's. So the ledger checked is the one the standby has
	// confirmed, while the sweep goes on and the kill still lands mid-sweep.
	ledger := sw.ledger.Load()
	waitFor(t, 30*time.Second, fmt.Sprintf("the standby to replicate the ledger of %d events", ledger), func() bool {
		st := getStats(t, standby.url)
		return st.Standby != nil && st.Standby.NextSeq >= uint64(ledger)
	})
	leader.kill()
	<-sw.done

	var promoted struct {
		Role string `json:"role"`
	}
	resp, err = client.Post(standby.url+"/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&promoted)
	resp.Body.Close()
	if err != nil || promoted.Role != "leader" {
		t.Fatalf("POST /promote: HTTP %d, role %q, %v", resp.StatusCode, promoted.Role, err)
	}
	if n, _ := metric(getText(t, standby.url+"/metrics"), "standby_promotions_total"); n != 1 {
		t.Errorf("standby_promotions_total = %v, want 1", n)
	}
	st := getStats(t, standby.url)
	t.Logf("ledger %d, promoted standby holds %d", ledger, st.Sequenced)
	if st.Sequenced < ledger {
		t.Errorf("promoted standby holds %d sequenced events < ledger %d", st.Sequenced, ledger)
	}
	// The write path moved: a batch a lap past everything sent lands.
	const n = 128
	mustPost(t, standby.url, sw.cursor+theFeed.len(), n)
	if after := getStats(t, standby.url).Ingested; after != st.Ingested+n {
		t.Errorf("ingested %d after a %d-event batch on the promoted standby, want %d", after, n, st.Ingested+n)
	}
}
