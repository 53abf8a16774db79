// Command serve runs the streaming prediction service as an HTTP daemon:
// the online, event-driven deployment mode of the framework (paper §4.3).
//
// Usage:
//
//	serve [-addr :8080] [-filter 300] [-window 300] [-train 26] [-retrain 4]
//	      [-policy sliding|whole|static] [-reorder 60] [-pprof]
//	      [-state-dir DIR] [-read-header-timeout 10s] [-read-timeout 5m]
//	      [-idle-timeout 2m]
//	      [-fleet] [-default-tenant default] [-max-active 0] [-idle-evict 0]
//	      [-follow URL] [-follower-id standby] [-follow-poll 250ms]
//	      [-promote-after 0] [-backfill FILE]
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
// alias the default tenant (-default-tenant), GET /tenants lists the
// fleet, GET /warnings?all=1 merges every active tenant's warnings, and
// GET /metrics aggregates all tenants with tenant="<id>" labels. With
// -state-dir each tenant persists under <state-dir>/tenants/<id>/.
// -max-active softly caps resident tenants (LRU eviction) and
// -idle-evict evicts tenants idle that long (0 = never). Background
// training passes are bounded fleet-wide at GOMAXPROCS.
//
// Overload behavior (DESIGN.md §13): when the pipeline is saturated an
// ingest request waits up to 2s for a slot, then gets a 429 with
// Retry-After and the first-unaccepted line number, so a client backs
// off and resumes exactly where it stopped — nothing admitted is ever
// dropped or reordered. In fleet mode each tenant additionally holds at
// most 4 concurrent ingest requests, so one storming tenant cannot camp
// every admission slot. The -read-header-timeout/-read-timeout/
// -idle-timeout flags bound how long a stalled or idle connection may
// hold server resources.
//
// -follow runs this daemon as a hot standby of another (DESIGN.md §14):
// it tails the leader's WAL over GET /wal?from=seq every -follow-poll,
// replays every record through the live stage logic, and refuses
// direct ingest (503) until promoted — POST /promote, or
// automatically once the leader has sent no HTTP response for -promote-after.
// The leader's pruning retains any segment a registered follower
// (-follower-id) has not acked. -backfill feeds a historical raw log
// through the pipeline with bounded memory, in file order, behind live
// traffic (POST /backfill does the same with the request body).
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
// fsync through the WAL commit pipeline (DESIGN.md §15), and in fleet
// mode at most two fsyncs run at once across all tenant stores.
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
	opts, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has already printed the error and usage
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// admitWait bounds how long an ingest request waits for a pipeline slot
// before a 429: well under the library's 30s backstop, so an overdriven
// daemon sheds load while clients still hold their connections.
const admitWait = 2 * time.Second

type serveOpts struct {
	addr           string
	filter, window int64
	train, retrain float64
	policy         string
	reorder        int64
	pprofOn        bool
	stateDir       string
	fleetOn        bool
	defaultTenant  string
	maxActive      int
	idleEvict      time.Duration

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration

	follow       string
	followerID   string
	followPoll   time.Duration
	promoteAfter time.Duration
	backfill     string
}

// parseFlags parses the command line into serveOpts.
func parseFlags(args []string) (serveOpts, error) {
	var o serveOpts
	err := flagSet(&o).Parse(args)
	return o, err
}

// flagSet registers every serve flag, each bound to its field of o.
func flagSet(o *serveOpts) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Int64Var(&o.filter, "filter", 300, "preprocessing filter threshold in seconds (0 disables)")
	fs.Int64Var(&o.window, "window", 300, "prediction window W_P in seconds")
	fs.Float64Var(&o.train, "train", 26, "initial/sliding training window in stream-time weeks")
	fs.Float64Var(&o.retrain, "retrain", 4, "retraining cadence W_R in stream-time weeks")
	fs.StringVar(&o.policy, "policy", "sliding", "training policy: sliding, whole or static")
	fs.Int64Var(&o.reorder, "reorder", 60, "out-of-order tolerance in stream-time seconds")
	fs.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in)")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for durable state (snapshots + WAL); empty = in-memory only")
	fs.BoolVar(&o.fleetOn, "fleet", false, "serve many tenants from this process (routes under /t/{tenant}/)")
	fs.StringVar(&o.defaultTenant, "default-tenant", "default", "tenant backing the unprefixed routes in fleet mode")
	fs.IntVar(&o.maxActive, "max-active", 0, "fleet: soft cap on resident tenants, LRU-evicted (0 = uncapped)")
	fs.DurationVar(&o.idleEvict, "idle-evict", 0, "fleet: evict tenants idle this long, e.g. 30m (0 = never)")
	fs.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 10*time.Second, "close connections whose request header stalls this long")
	fs.DurationVar(&o.readTimeout, "read-timeout", 5*time.Minute, "close connections whose request body stalls this long")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "close keep-alive connections idle this long")
	fs.StringVar(&o.follow, "follow", "", "run as hot standby of this leader URL (requires -state-dir, excludes -fleet)")
	fs.StringVar(&o.followerID, "follower-id", "standby", "stable follower name for the leader's retention guard")
	fs.DurationVar(&o.followPoll, "follow-poll", 250*time.Millisecond, "standby: leader poll interval")
	fs.DurationVar(&o.promoteAfter, "promote-after", 0, "standby: auto-promote after no HTTP response from the leader this long (0 = manual POST /promote only)")
	fs.StringVar(&o.backfill, "backfill", "", "raw text log to backfill through the pipeline behind live traffic")
	return fs
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
	cfg.AdmitWait = admitWait
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
func runBackfill(svc *stream.Service, path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: backfill: %v\n", err)
		return
	}
	defer f.Close()
	t0 := time.Now()
	fmt.Fprintf(os.Stderr, "serve: backfill of %s started\n", path)
	res, err := svc.Backfill(context.Background(), f)
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
			Stream:        cfg, // StateDir stays empty; tenants derive theirs from Root
			Root:          o.stateDir,
			DefaultTenant: o.defaultTenant,
			MaxActive:     o.maxActive,
			IdleAfter:     o.idleEvict,
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
			})
			if err != nil {
				svc.Close()
				return err
			}
			fmt.Fprintf(os.Stderr, "serve: standby of %s (poll %s, auto-promote %s)\n",
				o.follow, o.followPoll, promoteMode(o.promoteAfter))
		}
		if o.backfill != "" {
			go runBackfill(svc, o.backfill)
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
