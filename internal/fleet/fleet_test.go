package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/predictor"
	"repro/internal/raslog"
	"repro/internal/stream"
)

const week = 7 * 24 * time.Hour

func genLog(t testing.TB, seed uint64, weeks int) *raslog.Log {
	t.Helper()
	g, err := bgsim.NewGenerator(bgsim.SDSC(seed).Scaled(weeks, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	l, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	l.SortByTime()
	return l
}

// tenantStreamConfig is the per-tenant template the fleet tests share: a
// few passes over a short log, and an oversized warnings ring so full
// histories compare. Tenants fed through ingestEvents install each pass
// at a fixed stream position, so identically-fed tenants land on
// identical rule sets and warnings.
func tenantStreamConfig() stream.Config {
	cfg := stream.Defaults()
	cfg.InitialTrain = 3 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 6 * week
	cfg.WarningsKeep = 1 << 20
	return cfg
}

func mustFleet(t testing.TB, cfg Config) *Registry {
	t.Helper()
	if cfg.Stream.Filter.Threshold == 0 {
		cfg.Stream = tenantStreamConfig()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// ingestEvents feeds events one at a time, waiting after each until it is
// applied (see applied).
func ingestEvents(t testing.TB, svc *stream.Service, events []raslog.Event) {
	t.Helper()
	ctx := context.Background()
	for _, e := range events {
		if err := svc.Ingest(ctx, e); err != nil {
			t.Fatal(err)
		}
		applied(t, svc)
	}
}

// applied waits until the tenant's pipeline has applied everything
// ingested and no training pass is in flight: a pass then installs right
// after the batch whose release crossed its boundary, however long it
// trains, so identically-fed tenants install at identical positions.
func applied(t testing.TB, svc *stream.Service) {
	t.Helper()
	if err := waitApplied(svc); err != nil {
		t.Fatal(err)
	}
}

// waitApplied is applied for goroutines other than the test's.
func waitApplied(svc *stream.Service) error {
	deadline := time.Now().Add(30 * time.Second)
	for spins := 0; ; spins++ {
		st := svc.Stats()
		if st.Sequenced+st.LateDropped+int64(st.Queues.Reorder) == st.Ingested && !st.Retraining {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("tenant pipeline did not apply its intake in time")
		}
		if spins < 1000 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// comparePublic asserts two drained services expose identical state
// through the public API: rule set (bit-exact, including fitted
// distribution parameters), full warning history, retrain history,
// counters and stream clocks.
func comparePublic(t *testing.T, got, want *stream.Service) {
	t.Helper()
	if !reflect.DeepEqual(got.Rules(), want.Rules()) {
		t.Errorf("rule sets differ: got %d rules, want %d", len(got.Rules()), len(want.Rules()))
	}
	gw, ww := got.Warnings(0), want.Warnings(0)
	if len(gw) != len(ww) {
		t.Fatalf("warning counts differ: got %d, want %d", len(gw), len(ww))
	}
	for i := range gw {
		if gw[i] != ww[i] {
			t.Fatalf("warning %d differs: got %+v, want %+v", i, gw[i], ww[i])
		}
	}
	gs, ws := got.Stats(), want.Stats()
	if len(gs.Retrains) != len(ws.Retrains) {
		t.Fatalf("retrain counts differ: got %d, want %d", len(gs.Retrains), len(ws.Retrains))
	}
	for i := range gs.Retrains {
		if gs.Retrains[i].At != ws.Retrains[i].At {
			t.Errorf("retrain %d at %d, want %d", i, gs.Retrains[i].At, ws.Retrains[i].At)
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"ingested", gs.Ingested, ws.Ingested},
		{"sequenced", gs.Sequenced, ws.Sequenced},
		{"after_temporal", gs.AfterTemporal, ws.AfterTemporal},
		{"processed", gs.Processed, ws.Processed},
		{"fatals", gs.Fatals, ws.Fatals},
		{"warnings_total", gs.WarningsTotal, ws.WarningsTotal},
		{"rules", gs.Rules, ws.Rules},
	} {
		if c.got != c.want {
			t.Errorf("stat %s: got %d, want %d", c.name, c.got, c.want)
		}
	}
	if gs.Watermark != ws.Watermark || gs.StreamStart != ws.StreamStart || gs.NextRetrain != ws.NextRetrain {
		t.Errorf("stream clocks differ: got (%d, %d, %d), want (%d, %d, %d)",
			gs.StreamStart, gs.Watermark, gs.NextRetrain, ws.StreamStart, ws.Watermark, ws.NextRetrain)
	}
}

// TestLazyActivationAndIsolation pins the core multiplexing contract:
// tenants come into existence on first Acquire, and each behaves exactly
// like a standalone service fed the same log — rules and warnings from
// one tenant never leak into another. Eviction (a graceful close) drains
// each tenant, so the recovered state compares against a closed
// standalone reference.
func TestLazyActivationAndIsolation(t *testing.T) {
	la, lb := genLog(t, 3, 6), genLog(t, 17, 6)
	reg := mustFleet(t, Config{Root: t.TempDir()})
	defer reg.Close()

	if list := reg.List(); len(list) != 1 || list[0].ID != "default" || list[0].Active {
		t.Fatalf("fresh fleet should know only the inactive default tenant, got %+v", list)
	}

	for _, tc := range []struct {
		id  string
		log *raslog.Log
	}{{"alpha", la}, {"beta", lb}} {
		h, err := reg.Acquire(tc.id, true)
		if err != nil {
			t.Fatal(err)
		}
		ingestEvents(t, h.Service(), tc.log.Events)
		h.Release()
	}

	// Per-tenant references: standalone services with the identical
	// config must land on identical state.
	warns := map[string][]predictor.Warning{}
	for _, tc := range []struct {
		id  string
		log *raslog.Log
	}{{"alpha", la}, {"beta", lb}} {
		ref, err := stream.New(tenantStreamConfig())
		if err != nil {
			t.Fatal(err)
		}
		ingestEvents(t, ref, tc.log.Events)
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		if err := reg.Evict(tc.id); err != nil {
			t.Fatal(err)
		}
		h, err := reg.Acquire(tc.id, false)
		if err != nil {
			t.Fatal(err)
		}
		comparePublic(t, h.Service(), ref)
		warns[tc.id] = h.Service().Warnings(0)
		h.Release()
	}

	if len(warns["alpha"]) == 0 || len(warns["beta"]) == 0 {
		t.Fatalf("tenants produced no warnings (%d, %d); isolation test is trivial",
			len(warns["alpha"]), len(warns["beta"]))
	}
	if reflect.DeepEqual(warns["alpha"], warns["beta"]) {
		t.Error("different logs produced identical warning streams; tenants are not isolated")
	}
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvictReactivateEquivalence is the eviction acceptance test: ingest
// → evict (graceful close + snapshot) → reactivate (recover from disk) →
// ingest the rest must end byte-identical to a tenant that was never
// evicted — same rules, same warnings, same counters.
func TestEvictReactivateEquivalence(t *testing.T) {
	l := genLog(t, 11, 8)
	half := len(l.Events) / 2

	run := func(root string, evictAt int) {
		reg := mustFleet(t, Config{Root: root})
		h, err := reg.Acquire("x", true)
		if err != nil {
			t.Fatal(err)
		}
		if evictAt > 0 {
			ingestEvents(t, h.Service(), l.Events[:evictAt])
			h.Release()
			if err := reg.Evict("x"); err != nil {
				t.Fatal(err)
			}
			if h, err = reg.Acquire("x", false); err != nil {
				t.Fatalf("reactivation failed: %v", err)
			}
			ingestEvents(t, h.Service(), l.Events[evictAt:])
		} else {
			ingestEvents(t, h.Service(), l.Events)
		}
		h.Release()
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rootRef, rootEvict := t.TempDir(), t.TempDir()
	run(rootRef, 0)
	run(rootEvict, half)

	// Compare the recovered states: reopen both fleets and read the
	// tenant back — both sides went through the same final
	// close/recover cycle, so any difference is the eviction's fault.
	regRef := mustFleet(t, Config{Root: rootRef})
	defer regRef.Close()
	regEvict := mustFleet(t, Config{Root: rootEvict})
	defer regEvict.Close()
	href, err := regRef.Acquire("x", false)
	if err != nil {
		t.Fatal(err)
	}
	defer href.Release()
	hev, err := regEvict.Acquire("x", false)
	if err != nil {
		t.Fatal(err)
	}
	defer hev.Release()
	if got := hev.Service().Recovery().Replayed; got != 0 {
		t.Errorf("gracefully-closed tenant replayed %d WAL events on recovery, want 0", got)
	}
	if len(href.Service().Rules()) == 0 || len(href.Service().Warnings(0)) == 0 {
		t.Fatal("reference tenant is trivial; equivalence would prove nothing")
	}
	comparePublic(t, hev.Service(), href.Service())
}

// TestGracefulCloseClosesAllTenants pins shutdown: Close must drain and
// snapshot every active tenant, so the next start replays no WAL at all
// and recovers every tenant's counters.
func TestGracefulCloseClosesAllTenants(t *testing.T) {
	root := t.TempDir()
	l := genLog(t, 5, 4)
	reg := mustFleet(t, Config{Root: root})
	want := map[string]int64{}
	for _, id := range []string{"a", "b", "c"} {
		h, err := reg.Acquire(id, true)
		if err != nil {
			t.Fatal(err)
		}
		ingestEvents(t, h.Service(), l.Events)
		h.Release()
		want[id] = int64(len(l.Events))
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire("a", false); err != ErrClosed {
		t.Errorf("Acquire after Close = %v, want ErrClosed", err)
	}

	reg2 := mustFleet(t, Config{Root: root})
	defer reg2.Close()
	list := reg2.List()
	if len(list) != 4 { // a, b, c, default
		t.Fatalf("reopened fleet knows %d tenants, want 4: %+v", len(list), list)
	}
	for _, id := range []string{"a", "b", "c"} {
		h, err := reg2.Acquire(id, false)
		if err != nil {
			t.Fatal(err)
		}
		if rec := h.Service().Recovery(); rec.Replayed != 0 {
			t.Errorf("tenant %s replayed %d events after graceful close, want 0", id, rec.Replayed)
		}
		if got := h.Service().Stats().Ingested; got != want[id] {
			t.Errorf("tenant %s recovered %d ingested, want %d", id, got, want[id])
		}
		h.Release()
	}
}

// TestUnknownTenantSemantics pins the create flag: reads never mint
// tenants, writes do, and the default tenant always exists.
func TestUnknownTenantSemantics(t *testing.T) {
	root := t.TempDir()
	reg := mustFleet(t, Config{Root: root})
	defer reg.Close()

	if _, err := reg.Acquire("ghost", false); err == nil {
		t.Fatal("Acquire(create=false) on an unknown tenant succeeded")
	}
	if entries, _ := os.ReadDir(filepath.Join(root, "tenants")); len(entries) != 0 {
		t.Errorf("failed acquire left state dirs behind: %v", entries)
	}
	h, err := reg.Acquire("default", false)
	if err != nil {
		t.Fatalf("default tenant must always be acquirable: %v", err)
	}
	h.Release()
	if _, err := reg.Acquire("../etc", true); err == nil {
		t.Fatal("traversal tenant id accepted")
	}
}

// TestHundredActiveTenants is the scale acceptance test: one registry
// serves 100 concurrently-active durable tenants, each an isolated
// pipeline fed the same log, and every tenant must land on the identical
// (deterministic) rule set and warning history with its own state
// directory on disk.
func TestHundredActiveTenants(t *testing.T) {
	const n = 100
	root := t.TempDir()
	l := genLog(t, 23, 4)
	reg := mustFleet(t, Config{Root: root})
	defer reg.Close()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("sys-%03d", i)
			h, err := reg.Acquire(id, true)
			if err != nil {
				errs <- err
				return
			}
			defer h.Release()
			ctx := context.Background()
			// IngestBatch takes ownership of the slice; every tenant
			// feeds its own copy of the shared log.
			events := append([]raslog.Event(nil), l.Events...)
			for len(events) > 0 {
				c := min(512, len(events))
				if _, err := h.Service().IngestBatch(ctx, events[:c:c]); err != nil {
					errs <- err
					return
				}
				if err := waitApplied(h.Service()); err != nil {
					errs <- err
					return
				}
				events = events[c:]
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	active := 0
	for _, info := range reg.List() {
		if info.Active {
			active++
		}
	}
	if active != n { // default stays inactive: nothing touched it
		t.Fatalf("%d active tenants, want %d", active, n)
	}
	// Close drains and snapshots all 100 tenants; the reopened fleet
	// recovers each, and every recovered tenant must match tenant 0
	// exactly — the pipelines never shared state despite one process,
	// one retrain limiter and one root directory.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := mustFleet(t, Config{Root: root})
	defer reg2.Close()

	h0, err := reg2.Acquire("sys-000", false)
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Release()
	if len(h0.Service().Rules()) == 0 || h0.Service().Stats().WarningsTotal == 0 {
		t.Fatalf("tenant 0 is trivial (%d rules, %d warnings); scale test proves nothing",
			len(h0.Service().Rules()), h0.Service().Stats().WarningsTotal)
	}
	for i := 1; i < n; i++ {
		h, err := reg2.Acquire(fmt.Sprintf("sys-%03d", i), false)
		if err != nil {
			t.Fatal(err)
		}
		comparePublic(t, h.Service(), h0.Service())
		h.Release()
		if t.Failed() {
			t.Fatalf("tenant %d diverged from tenant 0; stopping", i)
		}
	}
	dirs, err := os.ReadDir(filepath.Join(root, "tenants"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != n {
		t.Errorf("%d tenant state dirs on disk, want %d", len(dirs), n)
	}
}

// TestMaxActiveEvictsLRU pins the soft cap: activating beyond MaxActive
// evicts the least-recently-used idle tenant, which reactivates from its
// snapshot on next use.
func TestMaxActiveEvictsLRU(t *testing.T) {
	root := t.TempDir()
	l := genLog(t, 9, 4)
	reg := mustFleet(t, Config{Root: root, MaxActive: 2})
	defer reg.Close()

	touch := func(id string) {
		t.Helper()
		h, err := reg.Acquire(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if h.Service().Stats().Ingested == 0 {
			ingestEvents(t, h.Service(), l.Events)
		}
		h.Release()
	}
	touch("a")
	time.Sleep(5 * time.Millisecond) // order lastUse strictly: ms clock
	touch("b")
	time.Sleep(5 * time.Millisecond)
	touch("c") // must evict "a", the LRU

	byID := map[string]TenantInfo{}
	for _, info := range reg.List() {
		byID[info.ID] = info
	}
	if byID["a"].Active {
		t.Error("LRU tenant a still active past the MaxActive=2 cap")
	}
	if !byID["b"].Active || !byID["c"].Active {
		t.Errorf("wrong tenants evicted: %+v", byID)
	}

	// The evicted tenant reactivates with its state intact.
	h, err := reg.Acquire("a", false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Service().Stats().Ingested; got != int64(len(l.Events)) {
		t.Errorf("reactivated tenant recovered %d ingested, want %d", got, len(l.Events))
	}
	if byID["a"].Activations != 1 {
		t.Errorf("pre-reactivation activations = %d, want 1", byID["a"].Activations)
	}
}

// TestSharedRetrainLimiter pins the bounded retrain scheduler: with a
// one-slot limiter and asynchronous retraining, many tenants triggering
// passes at once must serialize through the shared limiter — the peak
// never exceeds the cap, and passes do complete.
func TestSharedRetrainLimiter(t *testing.T) {
	l := genLog(t, 13, 6)
	scfg := tenantStreamConfig()
	reg := mustFleet(t, Config{Stream: scfg})
	defer reg.Close()
	// The fleet bounds passes at GOMAXPROCS; one slot makes any overlap
	// visible on every host. Tenants pick the limiter up on activation.
	reg.limiter = stream.NewRetrainLimiter(1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := reg.Acquire(fmt.Sprintf("t%d", i), true)
			if err != nil {
				t.Error(err)
				return
			}
			defer h.Release()
			events := append([]raslog.Event(nil), l.Events...)
			if _, err := h.Service().IngestBatch(context.Background(), events); err != nil {
				t.Error(err)
				return
			}
			waitFor(t, 60*time.Second, func() bool {
				return h.Service().Stats().Rules > 0
			})
		}(i)
	}
	wg.Wait()

	lim := reg.Limiter()
	if p := lim.Peak(); p != 1 {
		t.Errorf("limiter peak = %d, want exactly 1", p)
	}
	if a := lim.Active(); a != 0 {
		// Retrain passes may still be trailing; give them a moment.
		waitFor(t, 30*time.Second, func() bool { return lim.Active() == 0 })
	}
}

// TestConfigRejectsSharedState pins New's template validation.
func TestConfigRejectsSharedState(t *testing.T) {
	bad := tenantStreamConfig()
	bad.StateDir = t.TempDir()
	if _, err := New(Config{Stream: bad}); err == nil {
		t.Error("template with StateDir accepted")
	}
	bad2 := tenantStreamConfig()
	bad2.RetrainLimiter = stream.NewRetrainLimiter(1)
	if _, err := New(Config{Stream: bad2}); err == nil {
		t.Error("template with RetrainLimiter accepted")
	}
	if _, err := New(Config{Stream: tenantStreamConfig(), DefaultTenant: "../x"}); err == nil {
		t.Error("invalid default tenant accepted")
	}
}

// TestIdleJanitor pins idle eviction end to end: a tenant left untouched
// past IdleAfter is swept out by the janitor and its memory released,
// while its state survives on disk.
func TestIdleJanitor(t *testing.T) {
	root := t.TempDir()
	l := genLog(t, 7, 4)
	reg := mustFleet(t, Config{Root: root, IdleAfter: 50 * time.Millisecond, SweepEvery: time.Nanosecond})
	defer reg.Close()

	h, err := reg.Acquire("idle", true)
	if err != nil {
		t.Fatal(err)
	}
	ingestEvents(t, h.Service(), l.Events)
	h.Release()

	waitFor(t, 30*time.Second, func() bool {
		for _, info := range reg.List() {
			if info.ID == "idle" {
				return !info.Active
			}
		}
		return false
	})
	h, err = reg.Acquire("idle", false)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got := h.Service().Stats().Ingested; got != int64(len(l.Events)) {
		t.Errorf("swept tenant recovered %d ingested, want %d", got, len(l.Events))
	}
}
