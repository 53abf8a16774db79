package fleet

import (
	"io"
	"sort"
	"sync/atomic"

	"repro/internal/obsv"
	"repro/internal/stream"
)

// metrics is the fleet's own registry plus the retired baseline: when a
// tenant is evicted its final counters are folded into the baseline, and
// when it reactivates the counters durable recovery restored are
// subtracted back out — so fleet_*_total rollups are invariant under
// evict/reactivate cycles instead of double-counting recovered events.
//
// Rollup counters sum the baseline and every live tenant without a
// fleet-wide lock, so a scrape racing an eviction can transiently
// over-read by the events that tenant ingested since the scrape visited
// it; quiescent reads (what the tests and any alerting threshold care
// about) are exact.
type metrics struct {
	reg         *obsv.Registry
	activations *obsv.Counter
	evictions   *obsv.Counter
	throttled   *obsv.Counter

	retiredIngested  atomic.Int64
	retiredProcessed atomic.Int64
	retiredWarnings  atomic.Int64
	retiredFatals    atomic.Int64
}

func newMetrics(r *Registry) *metrics {
	m := &metrics{reg: obsv.NewRegistry()}
	m.reg.GaugeFunc("fleet_tenants_known",
		"Tenants registered with the fleet, active or evicted.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.tenants))
		})
	m.reg.GaugeFunc("fleet_tenants_active",
		"Tenants with a live pipeline in memory.",
		func() float64 {
			n := 0
			for _, tn := range r.snapshot() {
				if tn.active.Load() {
					n++
				}
			}
			return float64(n)
		})
	m.activations = m.reg.Counter("fleet_activations_total",
		"Tenant activations (first use and post-eviction recoveries).")
	m.evictions = m.reg.Counter("fleet_evictions_total",
		"Tenant evictions (idle sweeps, the MaxActive cap, explicit Evict).")
	m.throttled = m.reg.Counter("fleet_ingest_throttled_total",
		"Ingest requests refused at a tenant's concurrency cap (HTTP 429).")
	m.reg.CounterFunc("fleet_ingested_total",
		"Events accepted across all tenants, including evicted ones.",
		func() int64 { return r.liveTotals().Ingested + m.retiredIngested.Load() })
	m.reg.CounterFunc("fleet_processed_total",
		"Filter survivors across all tenants, including evicted ones.",
		func() int64 { return r.liveTotals().Processed + m.retiredProcessed.Load() })
	m.reg.CounterFunc("fleet_warnings_total",
		"Warnings emitted across all tenants, including evicted ones.",
		func() int64 { return r.liveTotals().WarningsTotal + m.retiredWarnings.Load() })
	m.reg.CounterFunc("fleet_fatals_total",
		"Fatal events observed across all tenants, including evicted ones.",
		func() int64 { return r.liveTotals().Fatals + m.retiredFatals.Load() })
	m.reg.GaugeFunc("fleet_retrain_active",
		"Background training passes holding a limiter slot.",
		func() float64 { return float64(r.limiter.Active()) })
	m.reg.GaugeFunc("fleet_retrain_peak",
		"High-water mark of concurrent background training passes.",
		func() float64 { return float64(r.limiter.Peak()) })
	m.reg.GaugeFunc("fleet_retrain_limit",
		"Admission bound of the shared retrain limiter.",
		func() float64 { return float64(r.limiter.Cap()) })
	return m
}

// retire folds an evicted tenant's final (drained) counters into the
// baseline. Called with the tenant's mu held, so rollup readers that
// visit the tenant see either its live counters or the baseline — never
// neither.
func (m *metrics) retire(st stream.Stats) {
	m.retiredIngested.Add(st.Ingested)
	m.retiredProcessed.Add(st.Processed)
	m.retiredWarnings.Add(st.WarningsTotal)
	m.retiredFatals.Add(st.Fatals)
}

// unretire subtracts the counters a reactivating tenant recovered from
// disk — they are about to be reported live again. Called with the
// tenant's mu held.
func (m *metrics) unretire(st stream.Stats) {
	m.retiredIngested.Add(-st.Ingested)
	m.retiredProcessed.Add(-st.Processed)
	m.retiredWarnings.Add(-st.WarningsTotal)
	m.retiredFatals.Add(-st.Fatals)
}

// liveTotals sums the live counters of every active tenant.
func (r *Registry) liveTotals() stream.Stats {
	var agg stream.Stats
	for _, tn := range r.snapshot() {
		tn.mu.Lock()
		if tn.svc != nil {
			st := tn.svc.Stats()
			agg.Ingested += st.Ingested
			agg.Processed += st.Processed
			agg.WarningsTotal += st.WarningsTotal
			agg.Fatals += st.Fatals
		}
		tn.mu.Unlock()
	}
	return agg
}

// WriteMetrics renders the aggregate exposition: the fleet's own
// instruments unlabeled, plus every active tenant's full stream registry
// with a tenant="<id>" label, merged family-by-family so each metric
// name appears once with per-tenant series side by side.
func (r *Registry) WriteMetrics(w io.Writer) error {
	tns := r.snapshot()
	parts := make([]obsv.LabeledRegistry, 0, len(tns)+1)
	parts = append(parts, obsv.LabeledRegistry{Registry: r.m.reg})
	for _, tn := range tns {
		tn.mu.Lock()
		if tn.svc != nil {
			parts = append(parts, obsv.LabeledRegistry{
				Registry: tn.svc.Metrics(),
				Labels:   []obsv.Label{{Key: "tenant", Value: tn.id}},
			})
		}
		tn.mu.Unlock()
	}
	// Tenant order from the map snapshot is random; sort the labeled
	// parts so the exposition is byte-stable across scrapes.
	rest := parts[1:]
	sort.Slice(rest, func(i, j int) bool {
		return rest[i].Labels[0].Value < rest[j].Labels[0].Value
	})
	return obsv.WriteMergedPrometheus(w, parts...)
}
