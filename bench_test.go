package repro

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (DESIGN.md §4 maps each to its modules), plus
// ablation benchmarks for the starred design choices of DESIGN.md §5.
// Each experiment benchmark regenerates its table/figure on the quick
// suite; `go test -bench . -benchmem` therefore re-runs the entire
// evaluation. cmd/experiments runs the same experiments at full scale.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgsim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/learner"
	"repro/internal/learner/assoc"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/reviser"
	"repro/internal/stream"
)

// benchSuite caches the quick suite across benchmarks (loading once keeps
// per-benchmark iterations meaningful).
var benchSuite *exp.Suite

func suite(b *testing.B) *exp.Suite {
	b.Helper()
	if benchSuite == nil {
		s, err := exp.QuickSuite(2008, 24)
		if err != nil {
			b.Fatal(err)
		}
		benchSuite = s
	}
	return benchSuite
}

// benchReport runs one experiment per iteration and discards the render.
func benchReport(b *testing.B, run func() (*exp.Report, error)) {
	b.Helper()
	s := suite(b) // load outside the timer
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2LogDescription(b *testing.B)   { benchReport(b, suite(b).Table2) }
func BenchmarkTable3Categories(b *testing.B)       { benchReport(b, suite(b).Table3) }
func BenchmarkTable4FilterSweep(b *testing.B)      { benchReport(b, suite(b).Table4) }
func BenchmarkTable5Overhead(b *testing.B)         { benchReport(b, suite(b).Table5) }
func BenchmarkFigure4FatalsPerDay(b *testing.B)    { benchReport(b, suite(b).Figure4) }
func BenchmarkFigure5InterArrivalCDF(b *testing.B) { benchReport(b, suite(b).Figure5) }
func BenchmarkFigure7MetaVsBase(b *testing.B)      { benchReport(b, suite(b).Figure7) }
func BenchmarkFigure8Venn(b *testing.B)            { benchReport(b, suite(b).Figure8) }
func BenchmarkFigure9TrainingSize(b *testing.B)    { benchReport(b, suite(b).Figure9) }
func BenchmarkFigure10RetrainFreq(b *testing.B)    { benchReport(b, suite(b).Figure10) }
func BenchmarkFigure11Reviser(b *testing.B)        { benchReport(b, suite(b).Figure11) }
func BenchmarkFigure12RuleChurn(b *testing.B)      { benchReport(b, suite(b).Figure12) }
func BenchmarkFigure13WindowSweep(b *testing.B)    { benchReport(b, suite(b).Figure13) }

// ---------------------------------------------------------------------------
// Component micro-benchmarks: the per-stage costs behind Table 5.
// ---------------------------------------------------------------------------

func benchTagged(b *testing.B) []preprocess.TaggedEvent {
	b.Helper()
	return suite(b).Systems[0].Tagged
}

func BenchmarkGenerateLog(b *testing.B) {
	cfg := bgsim.ANL(1).Scaled(4, 0.02)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := bgsim.NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter(b *testing.B) {
	cfg := bgsim.ANL(1).Scaled(4, 0.1)
	g, _ := bgsim.NewGenerator(cfg)
	raw, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preprocess.Filter{Threshold: 300}.Apply(raw)
	}
}

// trainFromScratch runs one training pass over a bare view of events:
// the learners' batch scans, then the reviser.
func trainFromScratch(ml *meta.MetaLearner, events []preprocess.TaggedEvent, p learner.Params) (*meta.TrainReport, error) {
	pre := learner.Prepare(events)
	report, err := ml.Learn(pre, p)
	if err != nil {
		return nil, err
	}
	ml.Revise(report, pre, p)
	return report, nil
}

// BenchmarkMetaTrain measures one full training pass: three base
// learners, then the reviser.
func BenchmarkMetaTrain(b *testing.B) {
	events := benchTagged(b)
	p := learner.Params{WindowSec: 300}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trainFromScratch(meta.New(), events, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevise isolates the reviser's single-pass scorer over a
// realistic candidate set.
func BenchmarkRevise(b *testing.B) {
	events := benchTagged(b)
	p := learner.Params{WindowSec: 300}
	ml := meta.New()
	ml.UseReviser = false
	report, err := trainFromScratch(ml, events, p)
	if err != nil {
		b.Fatal(err)
	}
	if len(report.Candidates) == 0 {
		b.Fatal("no candidates to score")
	}
	rv := reviser.New()
	pre := learner.Prepare(events)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv.Revise(report.Candidates, pre, p)
	}
}

func BenchmarkPredictorObserve(b *testing.B) {
	events := benchTagged(b)
	p := learner.Params{WindowSec: 300}
	report, err := trainFromScratch(meta.New(), events, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pr := predictor.New(report.Kept, p)
		pr.ObserveAll(events)
	}
}

// benchRawLog generates the sorted replay feed shared by the streaming
// benchmarks, returning the log and its stream-time span (replays shift
// subsequent laps by the span so time keeps moving forward).
func benchRawLog(b *testing.B) (*raslog.Log, int64) {
	b.Helper()
	cfg := bgsim.SDSC(1).Scaled(8, 0.1)
	g, _ := bgsim.NewGenerator(cfg)
	raw, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	raw.SortByTime()
	return raw, raw.End() - raw.Start() + 1
}

// benchStreamConfig pushes both training horizons beyond any replay so
// the measured loop is pure serving (a mid-run retrain at short
// benchtimes used to dominate the per-op numbers and hide the hot path);
// the predictor is armed by one manual TrainNow instead.
func benchStreamConfig() stream.Config {
	scfg := stream.Defaults()
	scfg.InitialTrain = 1_000_000 * time.Hour // train manually below
	scfg.RetrainEvery = 1_000_000 * time.Hour // and never again
	return scfg
}

// benchWarm loads the history into a fresh service and arms its
// predictor with one manual training pass.
func benchWarm(b *testing.B, svc *stream.Service, raw *raslog.Log) {
	b.Helper()
	ctx := context.Background()
	for _, e := range raw.Events {
		if err := svc.Ingest(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := svc.TrainNow(); err != nil {
		b.Fatal(err)
	}
}

// benchStreamService builds a warm streaming service for the observe
// benchmarks: history loaded, predictor armed, no retrain in sight.
func benchStreamService(b *testing.B) (*stream.Service, *raslog.Log, int64) {
	b.Helper()
	raw, span := benchRawLog(b)
	svc, err := stream.New(benchStreamConfig())
	if err != nil {
		b.Fatal(err)
	}
	benchWarm(b, svc, raw)
	return svc, raw, span
}

// BenchmarkStreamObserve pushes events one at a time through the full
// incremental pipeline of internal/stream — reorder buffer, filters,
// categorizer, live predictor — and reports sustained events/sec.
func BenchmarkStreamObserve(b *testing.B) {
	svc, raw, span := benchStreamService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	n := len(raw.Events)
	for i := 0; i < b.N; i++ {
		e := raw.Events[i%n]
		// Replays must move forward in stream time or they are late-dropped.
		e.Time += int64(1+i/n) * span
		if err := svc.Ingest(ctx, e); err != nil {
			b.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil { // drain: count full pipeline cost
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkIngestBatch is the same pipeline fed through IngestBatch in
// chunks: events enter the sequencer together and every released burst
// shares one WAL group commit (no store here, so the measured delta vs
// BenchmarkStreamObserve is the intake batching alone).
func BenchmarkIngestBatch(b *testing.B) {
	svc, raw, span := benchStreamService(b)
	ctx := context.Background()
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	n := len(raw.Events)
	batch := make([]raslog.Event, 0, chunk)
	for i := 0; i < b.N; i++ {
		e := raw.Events[i%n]
		e.Time += int64(1+i/n) * span
		batch = append(batch, e)
		if len(batch) == chunk || i == b.N-1 {
			if _, err := svc.IngestBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
			// The service owns the submitted slice; start a fresh one.
			batch = make([]raslog.Event, 0, chunk)
		}
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSequencerInOrder isolates the reorder buffer on the arrival
// pattern it mostly sees: a dense in-order feed that keeps ~3000 events
// inside the 60 s tolerance (every release sifts a deep heap), all of one
// identity so the temporal filter discards each of them again behind the
// buffer for the price of one map probe.
func BenchmarkSequencerInOrder(b *testing.B) {
	svc, err := stream.New(benchStreamConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const chunk, stepMs = 256, 20
	e := raslog.Event{Type: "RAS", Location: "R00-M0-N0-C:J01-U01", Entry: "ddr: excessive soft failures",
		Facility: raslog.Kernel, Severity: raslog.Info}
	b.ReportAllocs()
	b.ResetTimer()
	batch := make([]raslog.Event, 0, chunk)
	for i := 0; i < b.N; i++ {
		e.RecordID, e.Time = int64(i), int64(i)*stepMs
		batch = append(batch, e)
		if len(batch) == chunk || i == b.N-1 {
			if _, err := svc.IngestBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
			batch = make([]raslog.Event, 0, chunk) // the service owns the submitted slice
		}
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFleetIngestBatch is BenchmarkIngestBatch routed through a
// fleet registry: each chunk pays one Acquire/Release (a map lookup plus
// two mutex hops) on top of the identical single-tenant pipeline. The
// bar is parity — within 10% of BenchmarkIngestBatch, still zero
// allocations per event — proving fleet multiplexing adds no per-event
// cost to the hot path.
func BenchmarkFleetIngestBatch(b *testing.B) {
	raw, span := benchRawLog(b)
	reg, err := fleet.New(fleet.Config{Stream: benchStreamConfig()})
	if err != nil {
		b.Fatal(err)
	}
	h, err := reg.Acquire("bench", true)
	if err != nil {
		b.Fatal(err)
	}
	benchWarm(b, h.Service(), raw)
	h.Release()

	ctx := context.Background()
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	n := len(raw.Events)
	batch := make([]raslog.Event, 0, chunk)
	for i := 0; i < b.N; i++ {
		e := raw.Events[i%n]
		e.Time += int64(1+i/n) * span
		batch = append(batch, e)
		if len(batch) == chunk || i == b.N-1 {
			h, err := reg.Acquire("bench", false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Service().IngestBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
			h.Release()
			batch = make([]raslog.Event, 0, chunk)
		}
	}
	if err := reg.Close(); err != nil { // drain: count full pipeline cost
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// ---------------------------------------------------------------------------
// Incremental retraining (DESIGN.md §12): delta-apply vs O(window) rebuild.
// ---------------------------------------------------------------------------

// retrainWindow is one retrain position: the training window [from, to)
// and the matching index range into the event slice.
type retrainWindow struct {
	from, to int64
	lo, hi   int
}

// retrainBench caches the dense retrain workload across the benchmark
// pair so BenchmarkRetrainFull and BenchmarkRetrainIncremental measure
// identical window sequences.
var retrainBench struct {
	events []preprocess.TaggedEvent
	wins   []retrainWindow
}

// benchRetrainWorkload is the dense-fleet retrain scenario: the merged
// post-filter streams of many ANL-style systems (the aggregate volume a
// packed multi-tenant fleet trains over), with a multi-week training
// window sliding forward one minute of stream time per retrain — under
// RetrainLimiter pressure the slide is tiny relative to the window, which
// is precisely where delta-applies pay off.
func benchRetrainWorkload(b *testing.B) ([]preprocess.TaggedEvent, []retrainWindow, learner.Params) {
	b.Helper()
	p := learner.Params{WindowSec: 300}
	if retrainBench.events == nil {
		const systems = 36
		var events []preprocess.TaggedEvent
		for i := 0; i < systems; i++ {
			g, err := bgsim.NewGenerator(bgsim.ANL(2008+uint64(i)).Scaled(24, 0.3))
			if err != nil {
				b.Fatal(err)
			}
			raw, err := g.Generate()
			if err != nil {
				b.Fatal(err)
			}
			filtered, _ := preprocess.Filter{Threshold: 300}.Apply(raw)
			events = append(events, preprocess.NewCategorizer(preprocess.NewCatalog()).Tag(filtered)...)
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })

		const windowMs = 16 * 7 * 24 * 3600 * 1000 // 16-week training window
		const slideMs = 60 * 1000                  // one minute per retrain
		end := events[len(events)-1].Time
		var wins []retrainWindow
		for from := events[0].Time; from+windowMs <= end; from += slideMs {
			to := from + windowMs
			lo := sort.Search(len(events), func(i int) bool { return events[i].Time >= from })
			hi := sort.Search(len(events), func(i int) bool { return events[i].Time >= to })
			wins = append(wins, retrainWindow{from: from, to: to, lo: lo, hi: hi})
		}
		if len(wins) < 2 {
			b.Fatal("workload too short for a sliding retrain sequence")
		}
		retrainBench.events, retrainBench.wins = events, wins
	}
	return retrainBench.events, retrainBench.wins, p
}

// BenchmarkRetrainFull measures the learners' batch pass: every retrain
// re-mines the whole training window from scratch (no maintained event
// sets or sufficient statistics) — the O(window) cost engine.TrainWindow
// exists to avoid.
func BenchmarkRetrainFull(b *testing.B) {
	events, wins, p := benchRetrainWorkload(b)
	ml := meta.New()
	repo := meta.NewRepository()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%len(wins)]
		if _, err := engine.TrainStepPrepared(ml, repo, learner.Prepare(events[w.lo:w.hi]), p); err != nil {
			b.Fatal(err)
		}
	}
	w := wins[0]
	b.ReportMetric(float64(w.hi-w.lo), "window-events")
}

// BenchmarkRetrainIncremental measures the same retrain sequence through
// engine.TrainWindow: each pass delta-applies the minute of events that
// entered/expired and re-emits rules from the maintained counters. The
// advance-ns/op metric isolates the delta-apply itself (sub-millisecond
// on this workload); ns/op adds rule emission and the reviser pass, the
// irreducible floor shared with the batch path.
func BenchmarkRetrainIncremental(b *testing.B) {
	events, wins, p := benchRetrainWorkload(b)
	ml := meta.New()
	repo := meta.NewRepository()
	st := incr.New(meta.IncrConfig(ml, p))
	st.Advance(events, wins[0].from, wins[0].to, p) // cold build outside the timer
	var advanceNs int64
	idx := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx++
		if idx >= len(wins) {
			// Ran off the stream: rewind with a fresh cold build, untimed
			// (windows must only ever move forward).
			b.StopTimer()
			st = incr.New(meta.IncrConfig(ml, p))
			st.Advance(events, wins[0].from, wins[0].to, p)
			idx = 1
			b.StartTimer()
		}
		w := wins[idx]
		rt, err := engine.TrainWindow(ml, repo, st, events, w.from, w.to, p)
		if err != nil {
			b.Fatal(err)
		}
		advanceNs += rt.Incr.AdvanceDuration.Nanoseconds()
		if rt.Incr.Rebuild {
			b.Fatalf("delta-apply fell back to a rebuild: %s", rt.Incr.Reason)
		}
	}
	b.ReportMetric(float64(advanceNs)/float64(b.N), "advance-ns/op")
}

// BenchmarkRuleSwap measures the retrainer's copy-on-write publish: build
// a predictor over the refreshed rule set and swap it behind the atomic
// pointer the hot observe path loads from.
func BenchmarkRuleSwap(b *testing.B) {
	events := benchTagged(b)
	p := learner.Params{WindowSec: 300}
	report, err := trainFromScratch(meta.New(), events, p)
	if err != nil {
		b.Fatal(err)
	}
	var live atomic.Pointer[predictor.Predictor]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := predictor.New(report.Kept, p)
		pr.GlobalDedup = true
		pr.SeedLastFatal(int64(i))
		live.Store(pr)
	}
	b.ReportMetric(float64(len(report.Kept)), "rules")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).
// ---------------------------------------------------------------------------

// BenchmarkAblationAprioriDepth measures mining cost and rule yield as the
// antecedent cap grows: bodies beyond 3 items cost combinatorially more.
func BenchmarkAblationAprioriDepth(b *testing.B) {
	events := benchTagged(b)
	p := learner.Params{WindowSec: 300}
	for _, depth := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("maxBody=%d", depth), func(b *testing.B) {
			l := assoc.New()
			l.MaxBody = depth
			rules := 0
			for i := 0; i < b.N; i++ {
				rs, err := l.Learn(learner.Prepare(events), p)
				if err != nil {
					b.Fatal(err)
				}
				rules = len(rs)
			}
			b.ReportMetric(float64(rules), "rules")
		})
	}
}

// BenchmarkAblationMinROC sweeps the reviser threshold: lower values keep
// more rules (more recall, more false alarms), higher values prune harder.
func BenchmarkAblationMinROC(b *testing.B) {
	s := suite(b)
	sd := s.Systems[0]
	for _, minROC := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("minROC=%.1f", minROC), func(b *testing.B) {
			var kept int
			var recall float64
			for i := 0; i < b.N; i++ {
				cfg := engine.Defaults()
				cfg.InitialTrainWeeks = sd.Cfg.Weeks / 2
				cfg.TrainWeeks = cfg.InitialTrainWeeks
				ml := meta.New()
				ml.Reviser = &reviser.Reviser{MinROC: minROC, KeepDistribution: true}
				cfg.Meta = ml
				res, err := engine.Run(sd.Tagged, sd.Cfg.Start, sd.Cfg.Weeks, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.Retrainings); n > 0 {
					kept = res.Retrainings[n-1].RepoSize
				}
				recall = res.Overall.Recall()
			}
			b.ReportMetric(float64(kept), "rules")
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkAblationEnsembleOrder contrasts the full mixture-of-experts
// with each expert alone: the ensemble's recall should dominate.
func BenchmarkAblationEnsembleOrder(b *testing.B) {
	s := suite(b)
	sd := s.Systems[0]
	assocK, statK, distK := learner.Association, learner.Statistical, learner.Distribution
	variants := []struct {
		name string
		kind *learner.Kind
	}{
		{"ensemble", nil},
		{"assoc-only", &assocK},
		{"stat-only", &statK},
		{"dist-only", &distK},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				cfg := engine.Defaults()
				cfg.InitialTrainWeeks = sd.Cfg.Weeks / 2
				cfg.TrainWeeks = cfg.InitialTrainWeeks
				cfg.KindFilter = v.kind
				res, err := engine.Run(sd.Tagged, sd.Cfg.Start, sd.Cfg.Weeks, cfg)
				if err != nil {
					b.Fatal(err)
				}
				recall = res.Overall.Recall()
			}
			b.ReportMetric(recall, "recall")
		})
	}
}

// BenchmarkAblationFilterThreshold measures preprocessing output volume
// across thresholds (the Table 4 knob) on a heavier raw log.
func BenchmarkAblationFilterThreshold(b *testing.B) {
	cfg := bgsim.ANL(1).Scaled(4, 0.2)
	g, _ := bgsim.NewGenerator(cfg)
	raw, err := g.Generate()
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []int64{10, 60, 300} {
		b.Run(fmt.Sprintf("threshold=%ds", th), func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				out, _ := preprocess.Filter{Threshold: th}.Apply(raw)
				kept = out.Len()
			}
			b.ReportMetric(float64(kept), "events")
		})
	}
}
