// Package repro is a complete, self-contained reproduction of "Dynamic
// Meta-Learning for Failure Prediction in Large-Scale Systems: A Case
// Study" (Gu, Zheng, Lan, White, Hocks, Park — ICPP 2008; journal version
// by Lan, Gu, Zheng, Thakur, Coghlan).
//
// The package offers the paper's full pipeline as a small public API:
//
//	cfg := repro.ANL(42)                  // a synthetic Blue Gene/L installation
//	raw, _ := repro.Generate(cfg)         // the raw RAS log
//	events, _ := repro.Preprocess(raw, 300) // categorizer + filter (§3)
//	res, _ := repro.Run(events, cfg.Start, cfg.Weeks, repro.DefaultOptions())
//	fmt.Println(res.Overall)              // precision / recall (§5)
//
// Underneath sit the subsystems described in DESIGN.md: the RAS event
// model, the Blue Gene/L log simulator (standing in for the production
// ANL and SDSC logs), data preprocessing, the three base learners
// (association rules, statistical failure-count rules, inter-arrival
// probability distribution), the mixture-of-experts meta-learner, the
// ROC-based reviser, the event-driven predictor, and the dynamic
// retraining engine. The experiment harness regenerating every table and
// figure of the paper lives in internal/exp and is exposed through
// cmd/experiments and the benchmarks in bench_test.go.
package repro

import (
	"io"

	"repro/internal/bgsim"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// Aliases re-exporting the core vocabulary. They refer to internal
// packages, so the implementation stays private while the types remain
// usable by downstream code.
type (
	// Event is one RAS log record (Table 1's eight attributes).
	Event = raslog.Event
	// Log is a time-ordered RAS event collection.
	Log = raslog.Log
	// Severity is the RAS severity level (INFO … FAILURE).
	Severity = raslog.Severity
	// Facility is the component category (KERNEL, MONITOR, ...).
	Facility = raslog.Facility
	// TaggedEvent is a preprocessed event: categorized and flagged fatal.
	TaggedEvent = preprocess.TaggedEvent
	// FilterStats reports the filter's compression.
	FilterStats = preprocess.FilterStats
	// Catalog is the 219-class event catalog (Table 3).
	Catalog = preprocess.Catalog
	// SimulatorConfig parameterizes the synthetic BG/L log generator.
	SimulatorConfig = bgsim.Config
	// Options parameterizes a prediction run (training policy, W_P, W_R).
	Options = engine.Config
	// Result is a prediction run's outcome: warnings, weekly accuracy,
	// retraining records.
	Result = engine.Result
	// Warning is one failure prediction.
	Warning = predictor.Warning
	// Rule is one learned failure pattern.
	Rule = learner.Rule
	// Outcome tallies precision/recall.
	Outcome = eval.Outcome
	// WeekPoint is one week of an accuracy time series.
	WeekPoint = eval.WeekPoint
)

// Training-set policies (Options.Policy).
const (
	// StaticPolicy trains once and never retrains.
	StaticPolicy = engine.Static
	// SlidingPolicy retrains on the most recent Options.TrainWeeks weeks.
	SlidingPolicy = engine.Sliding
	// WholePolicy retrains on all history so far.
	WholePolicy = engine.Whole
)

// ANL returns the simulator configuration calibrated to the Argonne
// Blue Gene/L log (1 rack, 112 weeks, ~5.9 M raw events).
func ANL(seed uint64) *SimulatorConfig { return bgsim.ANL(seed) }

// SDSC returns the simulator configuration calibrated to the San Diego
// Blue Gene/L log (3 racks, 132 weeks, ~517 K raw events, mid-life
// reconfiguration at week 62).
func SDSC(seed uint64) *SimulatorConfig { return bgsim.SDSC(seed) }

// Generate produces the raw RAS log for a configuration.
func Generate(cfg *SimulatorConfig) (*Log, error) {
	g, err := bgsim.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate()
}

// GenerateTo streams the raw RAS log to a writer in the text codec
// without materializing it.
func GenerateTo(cfg *SimulatorConfig, w io.Writer) (int64, error) {
	g, err := bgsim.NewGenerator(cfg)
	if err != nil {
		return 0, err
	}
	var written int64
	buf := raslog.NewLog(cfg.Name, 4096)
	flush := func() error {
		n, err := raslog.WriteLog(w, buf)
		written += n
		buf.Events = buf.Events[:0]
		return err
	}
	err = g.Stream(func(e Event) error {
		buf.Append(e)
		if buf.Len() >= 4096 {
			return flush()
		}
		return nil
	})
	if err != nil {
		return written, err
	}
	return written, flush()
}

// ReadLog reads a text-codec RAS log.
func ReadLog(r io.Reader, name string) (*Log, error) { return raslog.ReadLog(r, name) }

// WriteLog writes a RAS log in the text codec.
func WriteLog(w io.Writer, l *Log) (int64, error) { return raslog.WriteLog(w, l) }

// Preprocess runs the paper's data-preprocessing stage: the filter at the
// given threshold (seconds; the paper's default is 300) followed by the
// categorizer with the curated fatal list. The input log must be
// time-sorted.
func Preprocess(l *Log, thresholdSec int64) ([]TaggedEvent, FilterStats) {
	filtered, stats := preprocess.Filter{Threshold: thresholdSec}.Apply(l)
	z := preprocess.NewCategorizer(preprocess.NewCatalog())
	return z.Tag(filtered), stats
}

// DefaultOptions returns the paper's defaults: W_P = 300 s, dynamic
// retraining every 4 weeks on a sliding six-month training set.
func DefaultOptions() Options { return engine.Defaults() }

// Run executes the dynamic meta-learning framework over a preprocessed,
// time-sorted event stream spanning [start, start + weeks·1 week).
func Run(events []TaggedEvent, start int64, weeks int, opts Options) (*Result, error) {
	return engine.Run(events, start, weeks, opts)
}

// NewCatalog returns the standard Blue Gene/L event catalog.
func NewCatalog() *Catalog { return preprocess.NewCatalog() }

// Tag categorizes a raw (already filtered) log without re-filtering.
func Tag(l *Log) []TaggedEvent {
	z := preprocess.NewCategorizer(preprocess.NewCatalog())
	return z.Tag(l)
}
