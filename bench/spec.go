package main

// The frozen benchmark definition: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics with the end-to-end
// metric each one is predicted to move. BENCHMARK.json at the repo root
// is the driver-facing copy; TestBenchmarkJSONMatchesSpec keeps the two
// in step. README.md explains every choice made here.

import "fmt"

const (
	weekSec = 7 * 24 * 3600
	weekMs  = weekSec * 1000
)

// workload is one traffic mix. The three serve-* workloads drive a
// freshly built cmd/serve subprocess; paper-offline runs in-process.
type workload struct {
	Name string
	Why  string

	// Daemon shape (serve-* only).
	Fleet    bool
	Durable  bool    // -state-dir
	Train    float64 // -train, stream-time weeks
	Retrain  float64 // -retrain, stream-time weeks
	Reorder  int64   // -reorder, stream-time seconds
	Recovery bool    // ends with the kill -9 recovery tail

	// Feed shape.
	Tenants  int
	MaxLines int   // batch closes at this many lines ...
	MaxSpan  int64 // ... or this much stream time (seconds; 0 = unbounded)
	// Disorder injected into the live feed, as shares of all live events.
	DisplacedShare float64 // arrive late but inside the tolerance
	LateShare      float64 // arrive beyond the tolerance (expected late drops)

	// Paced rates in events/s, frozen at ≈25 % / 60 % of the seed
	// commit's capacity_eps on this workload (README "Frozen rates").
	LoRate, HiRate float64
}

var workloads = []workload{
	{
		Name:    "serve-durable",
		Why:     "dense ANL feed into a durable daemon at its defaults: parse, sequencer, WAL and fsync dominate; ends with kill -9 recovery",
		Durable: true, Train: 26, Retrain: 4, Reorder: 60, Recovery: true,
		Tenants: 1, MaxLines: 256, MaxSpan: 45,
		LoRate: 57000, HiRate: 138000,
	},
	{
		Name:  "serve-predict",
		Why:   "sparse disordered SDSC feed, in-memory, a retrain every ~1.6 K events: filters, predictor, learners and collector dominate; persist idle",
		Train: 8, Retrain: 1, Reorder: 3 * 86400,
		Tenants: 1, MaxLines: 128, MaxSpan: 18 * 3600,
		DisplacedShare: 0.10, LateShare: 0.005,
		LoRate: 62000, HiRate: 150000,
	},
	{
		Name:  "serve-fleet",
		Why:   "16 durable tenants, 64-line batches, in order per tenant: many small stores whose fsyncs cannot coalesce across tenants",
		Fleet: true, Durable: true, Train: 26, Retrain: 4, Reorder: 60,
		Tenants: 16, MaxLines: 64,
		LoRate: 26000, HiRate: 62000,
	},
	{
		Name: "paper-offline",
		Why:  "no daemon: text logs through scanner, filter and engine.Run under sliding and whole policies; the single-threaded baseline",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) offline() bool { return w.Name == "paper-offline" }

// Phase shares of --seconds for the serve-* workloads: paced-lo,
// paced-hi (open loop) and saturate (closed loop). With --seconds 32
// they are the 10 s / 10 s / 12 s phases the issue sized.
const (
	loShare  = 0.3125
	hiShare  = 0.3125
	satShare = 0.375
)

// sloP99Ms is the latency limit behind slo_rate_eps.
const sloP99Ms = 25.0

// metricSpec names one metric. Bound is set for the driver-bounded
// end-to-end metrics only. Moves is the prediction written before
// measuring: which end-to-end metric on which workload the layer metric
// should move ("-" = the metric is itself end to end).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics bounded by the driver. The driver requires
// every bounded metric on every workload, never zero, and steady from
// seed to seed, so only the metrics defined on all four workloads and
// not ruled by the seed's data are here; the others (ack latencies,
// recovery, retrain time, precision ...) are the first group of
// perLayer, measured by the same untraced phases. Every bound is the
// contract's maximum: this sandbox's run-to-run noise on a single seed
// is already ±10–18 % on wall-clock metrics (README "Steadiness").
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "capacity_eps", Unit: "events/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_event", Unit: "us/event", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricSpec{
	// Workload-specific end-to-end metrics (issue bounds in README).
	{Name: "retrain_ms", Unit: "ms", Better: "lower", Moves: "- (follows the seed's training set)"},
	{Name: "ack_p50_ms.lo", Unit: "ms", Better: "lower", Moves: "-"},
	{Name: "ack_p99_ms.lo", Unit: "ms", Better: "lower", Moves: "-"},
	{Name: "ack_p50_ms.hi", Unit: "ms", Better: "lower", Moves: "-"},
	{Name: "ack_p99_ms.hi", Unit: "ms", Better: "lower", Moves: "-"},
	{Name: "ack_samples.lo", Unit: "count", Better: "higher", Moves: "-"},
	{Name: "ack_samples.hi", Unit: "count", Better: "higher", Moves: "-"},
	{Name: "slo_rate_eps", Unit: "events/s", Better: "higher", Moves: "-"},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Moves: "-"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Moves: "- (serve-durable)"},
	{Name: "offline_eps", Unit: "lines/s", Better: "higher", Moves: "- (paper-offline; equals capacity_eps there)"},
	{Name: "precision", Unit: "ratio", Better: "higher", Moves: "- (paper-offline, bit-exact per seed)"},
	{Name: "recall", Unit: "ratio", Better: "higher", Moves: "- (paper-offline, bit-exact per seed)"},

	// raslog
	{Name: "raslog.parse_ns_per_event", Unit: "ns/event", Better: "lower", Moves: "cpu_us_per_event, capacity_eps @ serve-durable, serve-fleet; offline_eps"},
	{Name: "raslog.parse_allocs_per_event", Unit: "allocs/event", Better: "lower", Moves: "cpu_us_per_event, rss_peak_mb @ serve-*"},
	{Name: "raslog.bytes_per_event", Unit: "bytes/event", Better: "lower", Moves: "cpu_us_per_event @ serve-*"},

	// stream
	{Name: "stream.ingest_ns_per_event.p1", Unit: "ns/event", Better: "lower", Moves: "capacity_eps, cpu_us_per_event @ every serve-*"},
	{Name: "stream.ingest_ns_per_event.p2", Unit: "ns/event", Better: "lower", Moves: "capacity_eps @ every serve-*"},
	{Name: "stream.self_ns_per_event", Unit: "ns/event", Better: "lower", Moves: "capacity_eps, cpu_us_per_event @ serve-predict first"},
	{Name: "stream.sequenced", Unit: "count", Better: "higher", Moves: "fail_share"},
	{Name: "stream.late_dropped", Unit: "count", Better: "lower", Moves: "fail_share (expected > 0 only @ serve-predict)"},
	{Name: "stream.reorder_overflow", Unit: "count", Better: "lower", Moves: "fail_share"},
	{Name: "stream.reorder_depth_max", Unit: "count", Better: "lower", Moves: "fail_share (cap 4096)"},
	{Name: "stream.rejected", Unit: "count", Better: "lower", Moves: "fail_share"},
	{Name: "stream.backpressure_s", Unit: "s", Better: "lower", Moves: "ack_p99_ms.hi, fail_share"},
	{Name: "stream.stage_sequencer_us_per_batch", Unit: "us/batch", Better: "lower", Moves: "ack_p99_ms.hi"},
	{Name: "stream.stage_shard_us_per_event", Unit: "us/event", Better: "lower", Moves: "ack_p99_ms.hi"},
	{Name: "stream.stage_collector_us_per_event", Unit: "us/event", Better: "lower", Moves: "ack_p99_ms.hi"},
	{Name: "stream.queue_depth_max", Unit: "count", Better: "lower", Moves: "ack_p99_ms.hi"},
	{Name: "stream.warnings_read_ms_p95", Unit: "ms", Better: "lower", Moves: "must not move ack_*"},

	// persist
	{Name: "persist.append_ns_per_event", Unit: "ns/event", Better: "lower", Moves: "cpu_us_per_event @ serve-durable, serve-fleet; no move @ serve-predict, paper-offline"},
	{Name: "persist.commit_wait_ms_p50.a1", Unit: "ms", Better: "lower", Moves: "ack_p50_ms.* @ serve-durable; capacity_eps @ serve-fleet"},
	{Name: "persist.commit_wait_ms_p99.a1", Unit: "ms", Better: "lower", Moves: "ack_p99_ms.* @ serve-durable"},
	{Name: "persist.commit_wait_ms_p50.a2", Unit: "ms", Better: "lower", Moves: "ack_p50_ms.*, capacity_eps @ serve-durable"},
	{Name: "persist.commit_wait_ms_p99.a2", Unit: "ms", Better: "lower", Moves: "ack_p99_ms.* @ serve-durable"},
	{Name: "persist.wal_bytes_per_event", Unit: "bytes/event", Better: "lower", Moves: "cpu_us_per_event @ serve-durable, serve-fleet"},
	{Name: "persist.state_dir_bytes", Unit: "bytes", Better: "lower", Moves: "recovery_s"},
	{Name: "persist.snapshots", Unit: "count", Better: "lower", Moves: "ack_p99_ms.* @ serve-durable, serve-fleet"},
	{Name: "persist.snapshot_ms", Unit: "ms", Better: "lower", Moves: "ack_p99_ms.*, recovery_s"},
	{Name: "persist.snapshot_bytes", Unit: "bytes", Better: "lower", Moves: "recovery_s"},
	{Name: "persist.replay_events_per_s", Unit: "events/s", Better: "higher", Moves: "recovery_s @ serve-durable"},
	{Name: "persist.recovered_events", Unit: "count", Better: "higher", Moves: "recovery_s @ serve-durable"},

	// preprocess
	{Name: "preprocess.filter_ns_per_event", Unit: "ns/event", Better: "lower", Moves: "cpu_us_per_event everywhere; offline_eps"},
	{Name: "preprocess.kept_share", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_event (work reaching the predictor)"},
	{Name: "preprocess.resident_keys", Unit: "count", Better: "lower", Moves: "rss_peak_mb"},

	// predictor
	{Name: "predictor.observe_ns_per_event", Unit: "ns/event", Better: "lower", Moves: "cpu_us_per_event @ serve-predict; offline_eps"},
	{Name: "predictor.rules", Unit: "count", Better: "lower", Moves: "predictor.observe_ns_per_event"},
	{Name: "predictor.warnings", Unit: "count", Better: "higher", Moves: "precision, recall"},
	{Name: "predictor.swap_us", Unit: "us", Better: "lower", Moves: "retrain_ms"},

	// learner / reviser / engine
	{Name: "learner.assoc_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; ack_p99_ms.hi @ serve-predict; offline_eps"},
	{Name: "learner.statrule_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; offline_eps"},
	{Name: "learner.probdist_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; offline_eps"},
	{Name: "learner.incr_advance_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; ack_p99_ms.hi @ serve-predict"},
	{Name: "reviser.revise_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; offline_eps"},
	{Name: "engine.train_step_ms", Unit: "ms", Better: "lower", Moves: "retrain_ms; ack_p99_ms.hi @ serve-predict; offline_eps"},
	{Name: "engine.train_events", Unit: "count", Better: "lower", Moves: "engine.train_step_ms"},
	{Name: "engine.retrains", Unit: "count", Better: "lower", Moves: "cpu_us_per_event @ serve-predict"},

	// fleet
	{Name: "fleet.acquire_ns", Unit: "ns", Better: "lower", Moves: "cpu_us_per_event @ serve-fleet only"},
	{Name: "fleet.activate_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ serve-fleet only"},
	{Name: "fleet.throttled", Unit: "count", Better: "lower", Moves: "fail_share @ serve-fleet only"},
	{Name: "fleet.tenants_active", Unit: "count", Better: "higher", Moves: "rss_peak_mb @ serve-fleet only"},

	// obsv / serve
	{Name: "obsv.scrape_ms_p95", Unit: "ms", Better: "lower", Moves: "ack_p50_ms.*"},
	{Name: "obsv.scrape_bytes", Unit: "bytes", Better: "lower", Moves: "obsv.scrape_ms_p95"},
	{Name: "serve.http_overhead_us_per_batch", Unit: "us/batch", Better: "lower", Moves: "ack_p50_ms.*, cpu_us_per_event @ serve-fleet first (small batches)"},
	{Name: "serve.cpu_util.lo", Unit: "ratio", Better: "lower", Moves: "ack_p50_ms.lo"},
	{Name: "serve.cpu_util.hi", Unit: "ratio", Better: "lower", Moves: "ack_p50_ms.hi"},
	{Name: "serve.cpu_util.sat", Unit: "ratio", Better: "lower", Moves: "names the binding resource behind capacity_eps"},

	// harness health
	{Name: "bench.generator_late_ms_p99", Unit: "ms", Better: "lower", Moves: "validity of ack_*"},
	{Name: "bench.client_cpu_util", Unit: "ratio", Better: "lower", Moves: "validity of capacity_eps (shares the 2 cores)"},
	{Name: "bench.steal_share", Unit: "ratio", Better: "lower", Moves: "validity of every timing (CPU time the hypervisor kept from this VM)"},
	{Name: "bench.build_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "validity of traced numbers"},
	{Name: "bgsim.generate_events_per_s", Unit: "events/s", Better: "higher", Moves: "setup_s"},

	// budget
	{Name: "budget.layer_sum_us_per_event", Unit: "us/event", Better: "lower", Moves: "cpu_us_per_event"},
	{Name: "budget.residual_share", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_event not explained by the layers"},
	{Name: "budget.predicted_capacity_eps", Unit: "events/s", Better: "higher", Moves: "capacity_eps (prediction written first)"},
}

func specOf(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
