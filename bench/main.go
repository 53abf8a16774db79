// Command bench is the repo benchmark (BENCHMARK.json): four workloads,
// end-to-end metrics measured from outside a freshly built cmd/serve, a
// per-layer budget from a traced in-process replay plus /metrics deltas,
// and correctness checks that fail the run. See README.md.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//	bash bench/run.sh --compare A.json [B.json]
//
// One run prints every metric by name and unit, then — as the last line
// of standard output — the driver's JSON object. It exits non-zero if a
// check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

type runConfig struct {
	w        workload
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	dir      string  // scratch for state directories, logs and span files
	buildS   float64 // build time measured by run.sh
	record   bool    // paper-offline: write the per-seed reference
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type phaseReport struct {
	Name            string  `json:"name"`
	OfferedEPS      float64 `json:"offered_eps"`
	WallS           float64 `json:"wall_s"`
	Requests        int64   `json:"requests"`
	Events          int64   `json:"events"`
	AchievedEPS     float64 `json:"achieved_eps"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	P99Supported    bool    `json:"p99_supported"`
	LateP99Ms       float64 `json:"generator_late_p99_ms"`
	LatenessGrowing bool    `json:"lateness_growing"`
	CPUUtil         float64 `json:"daemon_cpu_util"`
	Refused         int64   `json:"refused"`
	Errors          int64   `json:"errors"`
	Failed          bool    `json:"failed"`
}

// runResult is the one frozen result schema: what -out appends and
// -compare reads.
type runResult struct {
	Schema    int                    `json:"schema"`
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	Phases    []phaseReport          `json:"phases,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	// Claim is always null: the benchmark states numbers, never a gain.
	Claim *string `json:"claim"`
}

func newResult(rc runConfig) *runResult {
	return &runResult{Schema: 1, Workload: rc.w.Name, Seed: rc.seed, Seconds: rc.seconds,
		Trace: rc.trace, Correct: true, Metrics: map[string]metricValue{}}
}

// set records a metric under its catalog name; a name missing from
// spec.go is a bug in the harness.
func (r *runResult) set(name string, v float64) {
	m, ok := specOf(name)
	if !ok {
		panic("metric not in spec.go: " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
}

// raise keeps the larger of the recorded and the new value.
func (r *runResult) raise(name string, v float64) {
	if old, ok := r.Metrics[name]; !ok || v > old.Value {
		r.set(name, v)
	}
}

// setSteal records the share of host CPU time stolen from this VM since
// the given /proc/stat reading, and says so when it is large enough to
// have moved the timings.
func (r *runResult) setSteal(total0, steal0 float64) {
	total, steal := hostCPU()
	if total <= total0 {
		return
	}
	share := (steal - steal0) / (total - total0)
	r.set("bench.steal_share", share)
	if share > 0.05 {
		r.note("the hypervisor kept %.0f%% of CPU time from this VM during the timed phases: timings are inflated", 100*share)
	}
}

func (r *runResult) pass(phase, name string) {
	r.Checks = append(r.Checks, check{Phase: phase, Name: name, OK: true})
}

func (r *runResult) fail(phase, name, detail string) {
	r.Correct = false
	r.Checks = append(r.Checks, check{Phase: phase, Name: name, Detail: detail})
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func main() {
	var (
		name     = flag.String("workload", "", "serve-durable | serve-predict | serve-fleet | paper-offline")
		seed     = flag.Uint64("seed", 1, "derives every generator seed and the disorder schedule")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics from spans and /metrics deltas")
		out      = flag.String("out", "", "append the run's result to this JSON file")
		compare  = flag.Bool("compare", false, "compare result files: -compare A.json [B.json]")
		record   = flag.Bool("record", false, "paper-offline: record this seed's precision/recall in bench/reference.json")
		serveBin = flag.String("serve", ".bench_build/bin/serve", "cmd/serve binary (run.sh builds it)")
		dir      = flag.String("dir", ".bench_build/run", "scratch directory for state dirs, logs and span files")
	)
	flag.Parse()
	if *compare {
		if err := runCompare(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %v: need at least 1", *seconds))
	}
	buildS, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_S"), 64)
	rc := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
		serveBin: *serveBin, buildS: buildS, record: *record,
		dir: filepath.Join(*dir, fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		fatal(err)
	}
	t0 := time.Now()
	var res *runResult
	if w.offline() {
		res, err = runOffline(rc)
	} else {
		res, err = runServe(rc)
	}
	if err != nil {
		fatal(fmt.Errorf("%s seed %d: %w", w.Name, *seed, err))
	}
	if res.Correct {
		// Keep the scratch directory of a failed run for the post-mortem.
		_ = os.RemoveAll(rc.dir)
	}
	printReport(res, time.Since(t0))
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := driverLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// driverLine renders the last line of standard output: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one. A
// layer metric that does not apply to the workload reads 0; an
// end-to-end metric that is missing is an error.
func driverLine(res *runResult) (string, error) {
	list := endToEnd
	if res.Trace {
		list = perLayer
	}
	metrics := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			if !res.Trace {
				return "", fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			v = metricValue{Unit: m.Unit}
		}
		metrics[m.Name] = v
	}
	raw, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	return string(raw), err
}

func printReport(res *runResult, took time.Duration) {
	fmt.Printf("== %s  seed %d  seconds %g  trace %v  (run took %.1fs)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, took.Seconds())
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	if len(res.Phases) > 0 {
		fmt.Printf("%-14s %10s %10s %9s %9s %9s %8s %9s %7s\n",
			"phase", "offered/s", "acked/s", "requests", "p50 ms", "p99 ms", "cpu", "late p99", "failed")
		for _, p := range res.Phases {
			fmt.Printf("%-14s %10.0f %10.0f %9d %9.3f %9.3f %8.2f %9.3f %7v\n",
				p.Name, p.OfferedEPS, p.AchievedEPS, p.Requests, p.P50Ms, p.P99Ms, p.CPUUtil, p.LateP99Ms, p.Failed)
		}
	}
	print := func(title string, list []metricSpec) {
		fmt.Println(title)
		for _, m := range list {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Printf("  %-38s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
	print("end-to-end:", endToEnd)
	print("per-layer and workload-specific:", perLayer)
	failed := 0
	for _, c := range res.Checks {
		if !c.OK {
			failed++
			fmt.Printf("CHECK FAILED [%s] %s: %s\n", c.Phase, c.Name, c.Detail)
		}
	}
	fmt.Printf("checks: %d passed, %d failed; attempted %d events, failed %d\n",
		len(res.Checks)-failed, failed, res.Attempted, res.Failed)
}

// appendResult adds res to the JSON array in path (created if missing).
func appendResult(path string, res *runResult) error {
	var all []*runResult
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, res)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Workload < all[j].Workload })
	raw, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
