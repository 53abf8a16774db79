// Command serve runs the streaming prediction service as an HTTP daemon:
// the online, event-driven deployment mode of the framework (paper §4.3).
//
// Usage:
//
//	serve [-addr :8080] [-filter 300] [-window 300] [-train 26] [-retrain 4]
//	      [-policy sliding|whole|static] [-reorder 60] [-queue 1024]
//	      [-parallelism 0] [-pprof] [-state-dir DIR]
//	      [-admit-wait 2s] [-read-header-timeout 10s] [-read-timeout 5m]
//	      [-idle-timeout 2m] [-sync-max-wait 0]
//	      [-fleet] [-default-tenant default] [-max-active 0]
//	      [-idle-evict 0] [-retrain-workers 0] [-ingest-slots 0]
//	      [-sync-parallel 0]
//	      [-follow URL] [-follower-id standby] [-follow-poll 250ms]
//	      [-promote-after 0] [-backfill FILE] [-backfill-workers 0]
//
// API:
//
//	POST /ingest    text-codec RAS lines, one per line, admitted in
//	                1024-line chunks (POST /ingest/batch is the same)
//	GET  /warnings  recent warnings with trigger rules (?n=50)
//	GET  /stats     ingest counts, compression, rules, retrain history
//	GET  /metrics   the same counters plus per-stage latencies and the
//	                live training timings, in Prometheus text exposition
//	GET  /healthz   liveness
//	POST /retrain   force a training pass now
//
// -fleet multiplexes many independent tenants — one full pipeline each —
// in this one process (DESIGN.md §11). Every route above is then also
// available per tenant under /t/{tenant}/..., the unprefixed routes
// alias the default tenant, GET /tenants lists the fleet, GET
// /warnings?all=1 merges every active tenant's warnings, and GET
// /metrics aggregates all tenants with tenant="<id>" labels. With
// -state-dir each tenant persists under <state-dir>/tenants/<id>/.
// -max-active softly caps resident tenants (LRU eviction), -idle-evict
// evicts tenants idle that long (0 = never), and -retrain-workers bounds
// concurrent background training passes fleet-wide (0 = GOMAXPROCS,
// negative = unlimited).
//
// Overload behavior (DESIGN.md §13): when the pipeline is saturated an
// ingest request waits up to -admit-wait for a slot, then gets a 429
// with Retry-After and the first-unaccepted line number, so a client
// backs off and resumes exactly where it stopped — nothing admitted is
// ever dropped or reordered. In fleet mode -ingest-slots additionally
// caps each tenant's concurrent ingest requests (0 = 4, negative =
// uncapped) so one storming tenant cannot camp every admission slot.
// The -read-header-timeout/-read-timeout/-idle-timeout flags bound how
// long a stalled or idle connection may hold server resources.
//
// -follow runs this daemon as a hot standby of another (DESIGN.md §14):
// it tails the leader's WAL over GET /wal/segments + /wal/segment/{name},
// replays every record through the live stage logic, and refuses direct
// ingest (503) until promoted — POST /promote, or automatically once the
// leader has been unreachable for -promote-after. The leader's pruning
// retains any segment a registered follower (-follower-id) has not acked.
// -backfill feeds a historical raw log through the pipeline with bounded
// memory, parsed in parallel but submitted in order behind live traffic
// (POST /backfill does the same with the request body).
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for
// CPU/heap/goroutine profiling of the live service. It is opt-in: the
// profiling endpoints expose internals and cost CPU while sampling, so
// they stay off unless asked for.
//
// -state-dir makes the service durable: trained state is snapshotted to
// the directory and every sequenced event is written to a CRC-checked
// write-ahead log, so a crashed or killed process restarts where it left
// off (newest valid snapshot + WAL tail replay — DESIGN.md §9). Without
// it the service is purely in-memory, as before. Every ingest ack is
// released only after the covering fsync; concurrent requests share one
// fsync through the WAL commit pipeline (DESIGN.md §15). -sync-max-wait
// adds a deliberate coalescing delay on top of the self-clocking
// pipeline, and in fleet mode -sync-parallel bounds concurrent fsyncs
// across all tenant stores on the shared disk.
//
// Retraining follows *stream time* (event timestamps), so replayed or
// time-compressed feeds retrain on their own timeline. Try it end to end:
//
//	serve &
//	go run ./examples/livefeed -addr http://localhost:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	filter := flag.Int64("filter", 300, "preprocessing filter threshold in seconds (0 disables)")
	window := flag.Int64("window", 300, "prediction window W_P in seconds")
	train := flag.Float64("train", 26, "initial/sliding training window in stream-time weeks")
	retrain := flag.Float64("retrain", 4, "retraining cadence W_R in stream-time weeks")
	policy := flag.String("policy", "sliding", "training policy: sliding, whole or static")
	reorder := flag.Int64("reorder", 60, "out-of-order tolerance in stream-time seconds")
	queue := flag.Int("queue", 1024, "intake queue length: admitted batches awaiting the pipeline before ingest blocks (see -admit-wait)")
	parallelism := flag.Int("parallelism", 0, "background-training workers (0 = GOMAXPROCS, 1 = serial)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in)")
	stateDir := flag.String("state-dir", "", "directory for durable state (snapshots + WAL); empty = in-memory only")
	fleetOn := flag.Bool("fleet", false, "serve many tenants from this process (routes under /t/{tenant}/)")
	defaultTenant := flag.String("default-tenant", "default", "tenant backing the unprefixed routes in fleet mode")
	maxActive := flag.Int("max-active", 0, "fleet: soft cap on resident tenants, LRU-evicted (0 = uncapped)")
	idleEvict := flag.Duration("idle-evict", 0, "fleet: evict tenants idle this long, e.g. 30m (0 = never)")
	retrainWorkers := flag.Int("retrain-workers", 0, "fleet: concurrent background training passes (0 = GOMAXPROCS, negative = unlimited)")
	admitWait := flag.Duration("admit-wait", 2*time.Second, "max time an ingest request waits for a pipeline slot before a 429")
	syncMaxWait := flag.Duration("sync-max-wait", 0, "WAL group-commit coalescing delay: how long the background syncer lingers so more batches share one fsync (0 = sync as soon as the disk is free)")
	syncParallel := flag.Int("sync-parallel", 0, "fleet: concurrent WAL fsyncs across all tenant stores (0 = 2, negative = unbounded per store)")
	ingestSlots := flag.Int("ingest-slots", 0, "fleet: per-tenant concurrent ingest request cap (0 = 4, negative = uncapped)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "close connections whose request header stalls this long")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "close connections whose request body stalls this long")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "close keep-alive connections idle this long")
	follow := flag.String("follow", "", "run as hot standby of this leader URL (requires -state-dir, excludes -fleet)")
	followerID := flag.String("follower-id", "standby", "stable follower name for the leader's retention guard")
	followPoll := flag.Duration("follow-poll", 250*time.Millisecond, "standby: leader poll interval")
	promoteAfter := flag.Duration("promote-after", 0, "standby: auto-promote after the leader is unreachable this long (0 = manual POST /promote only)")
	backfill := flag.String("backfill", "", "raw text log to backfill through the pipeline behind live traffic")
	backfillWorkers := flag.Int("backfill-workers", 0, "backfill parser workers (0 = half the CPUs)")
	flag.Parse()

	opts := serveOpts{
		addr: *addr, filter: *filter, window: *window, train: *train,
		retrain: *retrain, policy: *policy, reorder: *reorder,
		queue: *queue, parallelism: *parallelism, pprofOn: *pprofOn,
		stateDir: *stateDir, fleetOn: *fleetOn, defaultTenant: *defaultTenant,
		maxActive: *maxActive, idleEvict: *idleEvict, retrainWorkers: *retrainWorkers,
		admitWait: *admitWait, ingestSlots: *ingestSlots,
		syncMaxWait: *syncMaxWait, syncParallel: *syncParallel,
		readHeaderTimeout: *readHeaderTimeout, readTimeout: *readTimeout,
		idleTimeout: *idleTimeout,
		follow:      *follow, followerID: *followerID, followPoll: *followPoll,
		promoteAfter: *promoteAfter, backfill: *backfill, backfillWorkers: *backfillWorkers,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

type serveOpts struct {
	addr           string
	filter, window int64
	train, retrain float64
	policy         string
	reorder        int64
	queue          int
	parallelism    int
	pprofOn        bool
	stateDir       string
	fleetOn        bool
	defaultTenant  string
	maxActive      int
	idleEvict      time.Duration
	retrainWorkers int
	admitWait      time.Duration
	ingestSlots    int
	syncMaxWait    time.Duration
	syncParallel   int

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration

	follow          string
	followerID      string
	followPoll      time.Duration
	promoteAfter    time.Duration
	backfill        string
	backfillWorkers int
}

func streamConfig(o serveOpts) (stream.Config, error) {
	const week = 7 * 24 * time.Hour
	cfg := stream.Defaults()
	cfg.Filter.Threshold = o.filter
	cfg.Params.WindowSec = o.window
	cfg.InitialTrain = time.Duration(o.train * float64(week))
	cfg.TrainWindow = time.Duration(o.train * float64(week))
	cfg.RetrainEvery = time.Duration(o.retrain * float64(week))
	cfg.ReorderWindow = time.Duration(o.reorder) * time.Second
	cfg.QueueLen = o.queue
	cfg.Parallelism = o.parallelism
	cfg.AdmitWait = o.admitWait
	cfg.SyncMaxWait = o.syncMaxWait
	switch o.policy {
	case "sliding":
		cfg.Policy = engine.Sliding
	case "whole":
		cfg.Policy = engine.Whole
	case "static":
		cfg.Policy = engine.Static
	default:
		return cfg, fmt.Errorf("unknown policy %q", o.policy)
	}
	return cfg, nil
}

func promoteMode(d time.Duration) string {
	if d <= 0 {
		return "manual"
	}
	return d.String()
}

// runBackfill feeds -backfill's raw log through the pipeline behind live
// traffic, logging the outcome. Errors are operational news, not fatal:
// the daemon keeps serving either way.
func runBackfill(svc *stream.Service, path string, workers int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: backfill: %v\n", err)
		return
	}
	defer f.Close()
	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "serve: backfill of %s started\n", path)
	res, err := svc.Backfill(context.Background(), f, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: backfill: %v (%d lines fed first)\n", err, res.Lines)
		return
	}
	secs := time.Since(t0).Seconds()
	fmt.Fprintf(os.Stderr, "serve: backfill done — %d lines (%d skipped) in %.1fs (%.0f lines/s)\n",
		res.Lines, res.Skipped, secs, float64(res.Lines)/secs)
}

// newServer builds the daemon's http.Server with connection hygiene a
// long-lived ingest endpoint needs: without these timeouts a client
// that stalls mid-header (deliberately or not) pins a connection — and
// under -fleet an admission slot's worth of goodwill — forever. The
// body timeout is generous because legitimate batch uploads stream
// multi-megabyte logs over slow links.
func newServer(o serveOpts, mux *http.ServeMux) *http.Server {
	return &http.Server{
		Addr:              o.addr,
		Handler:           mux,
		ReadHeaderTimeout: o.readHeaderTimeout,
		ReadTimeout:       o.readTimeout,
		IdleTimeout:       o.idleTimeout,
	}
}

func run(o serveOpts) error {
	cfg, err := streamConfig(o)
	if err != nil {
		return err
	}
	if o.follow != "" {
		switch {
		case o.fleetOn:
			return errors.New("-follow and -fleet are mutually exclusive (a standby replicates one pipeline)")
		case o.stateDir == "":
			return errors.New("-follow requires -state-dir (the replica keeps its own WAL)")
		case o.backfill != "":
			return errors.New("-follow and -backfill are mutually exclusive (a standby's stream comes from its leader)")
		}
	}

	var (
		mux      *http.ServeMux
		shutdown func() error
		drained  func()
	)
	if o.fleetOn {
		reg, err := fleet.New(fleet.Config{
			Stream:             cfg, // StateDir stays empty; tenants derive theirs from Root
			Root:               o.stateDir,
			DefaultTenant:      o.defaultTenant,
			MaxActive:          o.maxActive,
			IdleAfter:          o.idleEvict,
			RetrainConcurrency: o.retrainWorkers,
			IngestSlots:        o.ingestSlots,
			SyncParallel:       o.syncParallel,
		})
		if err != nil {
			return err
		}
		if o.stateDir != "" {
			fmt.Fprintf(os.Stderr, "serve: fleet root %s — %d tenants known\n",
				o.stateDir, len(reg.List()))
		}
		mux = fleet.NewMux(reg)
		shutdown = reg.Close
		drained = func() {
			// Runs after Close, so every tenant is already inactive.
			fmt.Fprintf(os.Stderr, "serve: fleet drained — %d tenants known\n", len(reg.List()))
		}
	} else {
		cfg.StateDir = o.stateDir
		cfg.Standby = o.follow != ""
		svc, err := stream.New(cfg)
		if err != nil {
			return err
		}
		if o.stateDir != "" {
			rec := svc.Recovery()
			fmt.Fprintf(os.Stderr, "serve: recovered from %s — snapshot at seq %d, %d WAL events replayed, resuming at seq %d (%d ms)\n",
				o.stateDir, rec.SnapshotSeq, rec.Replayed, rec.ResumeSeq, rec.DurationMs)
		}
		var follower *stream.Follower
		if o.follow != "" {
			follower, err = stream.NewFollower(svc, stream.FollowerConfig{
				Leader:       o.follow,
				ID:           o.followerID,
				Poll:         o.followPoll,
				PromoteAfter: o.promoteAfter,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
				},
			})
			if err != nil {
				svc.Close()
				return err
			}
			fmt.Fprintf(os.Stderr, "serve: standby of %s (poll %s, auto-promote %s)\n",
				o.follow, o.followPoll, promoteMode(o.promoteAfter))
		}
		if o.backfill != "" {
			go runBackfill(svc, o.backfill, o.backfillWorkers)
		}
		mux = stream.NewMux(svc)
		shutdown = func() error {
			if follower != nil {
				// Stop pulling before draining; a standby that is shut down
				// stays a standby (its durable state resumes the tail later).
				follower.Stop()
			}
			return svc.Close()
		}
		drained = func() {
			st := svc.Stats()
			fmt.Fprintf(os.Stderr, "serve: drained — %d ingested, %d processed (%.1f%% compression), %d warnings, %d retrains\n",
				st.Ingested, st.Processed, 100*st.CompressionRate, st.WarningsTotal, len(st.Retrains))
		}
	}

	if o.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	srv := newServer(o, mux)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listening before serving lets -addr name port 0: the log line below
	// then carries the port the kernel picked.
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		shutdown()
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	extra := ""
	if o.pprofOn {
		extra += ", pprof on"
	}
	if o.fleetOn {
		extra += ", fleet mode"
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (policy %s, W_P %ds, filter %ds, retrain every %.3gw%s)\n",
		ln.Addr(), o.policy, o.window, o.filter, o.retrain, extra)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "serve: shutting down")
	case err := <-errCh:
		shutdown()
		return err
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		shutdown()
		return err
	}
	if err := shutdown(); err != nil {
		return err
	}
	drained()
	return nil
}
