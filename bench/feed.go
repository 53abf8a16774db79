package main

// Feed generation: every byte the daemon receives is derived from the
// -seed argument here. The daemon sees only request bodies.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/bgsim"
	"repro/internal/raslog"
)

// request is one pre-encoded POST /ingest/batch. events aliases a
// window of the tenant's send-order slice and is what the reference
// pipeline consumes when the request is acked.
type request struct {
	tenant int
	path   string
	body   []byte
	events []raslog.Event
}

// lane is an ordered request sequence. serve-durable and serve-predict
// have one lane shared by both connections (requests are dispatched in
// index order); serve-fleet has one lane per connection, each cycling
// round-robin over the eight tenants it owns, in order per tenant.
type lane struct {
	history []request // warm-up, up to the first trained rule set
	live    []request
}

type feed struct {
	lanes       []lane
	liveEvents  int
	outOfOrder  int // live events sent behind a newer event of their tenant
	thinned     int // events dropped from storms denser than the reorder buffer allows
	genEvents   int
	genDuration time.Duration
}

// seedFor derives an independent 64-bit seed per purpose from -seed
// (splitmix64), so tenants, history and live feeds never share a stream.
func seedFor(seed uint64, purpose uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(purpose+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

var errEnough = errors.New("enough events")

// steady switches off bgsim's per-regime rate jitter. The jitter is a
// cumulative random walk on the failure rate: across seeds it moves a
// preset's raw volume by 3× either way (and over a long feed drifts the
// event density without bound), which would make every size-dependent
// metric — set-up time, memory, lines per second — a property of the
// seed instead of the code. Signature drift and class-popularity drift,
// which are what dynamic retraining tracks, stay on.
func steady(cfg *bgsim.Config) *bgsim.Config {
	cfg.RegimeRateJitter, cfg.RegimeStormJitter = 1, 1
	return cfg
}

// generate streams cfg (made steady) until n events are out or
// cfg.Weeks run out.
// Timestamps are truncated to whole seconds, exactly what the text codec
// carries, so harness-side events equal what the daemon parses.
func generate(cfg *bgsim.Config, n int) ([]raslog.Event, error) {
	g, err := bgsim.NewGenerator(steady(cfg))
	if err != nil {
		return nil, err
	}
	out := make([]raslog.Event, 0, min(n, 1<<20))
	err = g.Stream(func(e raslog.Event) error {
		e.Time -= e.Time % 1000
		out = append(out, e)
		if len(out) >= n {
			return errEnough
		}
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return nil, err
	}
	return out, nil
}

// appendLine encodes e in the raslog text codec (byte-identical to
// raslog.WriteLog for bgsim output, which never needs sanitizing;
// TestAppendLineMatchesWriteLog pins that).
func appendLine(dst []byte, e *raslog.Event) []byte {
	dst = strconv.AppendInt(dst, e.RecordID, 10)
	dst = append(dst, '|')
	dst = append(dst, e.Type...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, e.Seconds(), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, e.JobID, 10)
	dst = append(dst, '|')
	dst = append(dst, e.Location...)
	dst = append(dst, '|')
	dst = append(dst, e.Facility.String()...)
	dst = append(dst, '|')
	dst = append(dst, e.Severity.String()...)
	dst = append(dst, '|')
	dst = append(dst, e.Entry...)
	return append(dst, '\n')
}

// cutBatches splits a send-order event slice into [start,end) ranges of
// at most maxLines lines and maxSpanSec of stream time (0 = unbounded) —
// a shipper that flushes on size or linger. Cuts fall only between
// events of different seconds, so no two batches tie on a timestamp and
// the daemon's (time, arrival) order is the same however concurrent
// batches interleave. A second holding more than maxLines events becomes
// one oversized batch.
func cutBatches(events []raslog.Event, maxLines int, maxSpanSec int64) [][2]int {
	times := make([]int64, len(events))
	for i := range events {
		times[i] = events[i].Time
	}
	return cutTimes(times, maxLines, maxSpanSec)
}

// cutTimes is cutBatches over the events' timestamps alone.
func cutTimes(times []int64, maxLines int, maxSpanSec int64) [][2]int {
	var out [][2]int
	maxSpanMs := maxSpanSec * 1000
	// frontier is the newest time sent so far: the span the tolerance is
	// sized against is measured on it, so a displaced (old) event neither
	// stretches nor splits a batch.
	frontier := int64(-1 << 62)
	for i := 0; i < len(times); {
		start := max(frontier, times[i])
		j := i
		for j < len(times) && j-i < maxLines {
			if t := times[j]; t > frontier {
				if maxSpanMs > 0 && t-start > maxSpanMs && j > i {
					break
				}
				frontier = t
			}
			j++
		}
		if j < len(times) && times[j] == times[j-1] {
			k := j
			for k > i && times[k-1] == times[j] {
				k--
			}
			if k > i {
				j = k
			} else {
				for j < len(times) && times[j] == times[i] {
					j++
				}
			}
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// disorder reorders a time-sorted slice into its send order: a
// displacedShare of events is held back by up to half the tolerance
// (the daemon must re-sequence them) and a lateShare until the stream
// has moved two tolerances on (the daemon must late-drop them). Only
// events alone in their second are moved, so the re-sequenced order
// never depends on arrival order among equal timestamps.
//
// Two connections can deliver adjacent batches in either order, and
// every event's fate must be the same both ways, so the schedule is
// checked against the batch cuts it produces and offenders are put back
// in place (which can move cuts, hence the loop):
//   - a displaced event in batch i must be newer than anything batch
//     i+1 can release, end(i+1) − tolerance;
//   - a late event in batch i needs a witness — its unmoved successor in
//     time — already released when batch i−1 or i arrives, i.e.
//     end(i−2) ≥ witness + tolerance: batch i is not sent before batch
//     i−2 is acked.
func disorder(events []raslog.Event, tolSec int64, displacedShare, lateShare float64, rng *rand.Rand, maxLines int, maxSpanSec int64) []raslog.Event {
	n := len(events)
	tolMs := tolSec * 1000
	alone := func(i int) bool {
		return (i == 0 || events[i-1].Time < events[i].Time) &&
			(i == n-1 || events[i+1].Time > events[i].Time)
	}
	candidates := 0
	for i := range events {
		if alone(i) {
			candidates++
		}
	}
	if candidates == 0 {
		return events
	}
	// Per-candidate probabilities that give the requested overall shares.
	pLate := lateShare * float64(n) / float64(candidates)
	pDisp := displacedShare * float64(n) / float64(candidates)

	const (
		inPlace = iota
		displaced
		late
	)
	kind := make([]uint8, n)
	key := make([]int64, n) // stream time after which a moved event is sent
	pinned := make([]bool, n)
	for i := range events {
		if !alone(i) || pinned[i] {
			continue
		}
		switch r := rng.Float64(); {
		case r < pLate:
			if i+1 >= n || events[i+1].Time-events[i].Time > tolMs/2 {
				continue
			}
			// Sent right after the first event two tolerances on.
			at := sort.Search(n, func(k int) bool { return events[k].Time >= events[i].Time+2*tolMs })
			if at == n {
				continue // the stream ends first: it would not be late
			}
			pinned[i+1] = true
			kind[i], key[i] = late, events[at].Time
		case r < pLate+pDisp:
			kind[i], key[i] = displaced, events[i].Time+1000*(1+rng.Int63n(tolSec/2))
		}
	}

	order := make([]int, n)
	times := make([]int64, n) // by send position
	batchOf := make([]int, n) // by original index
	var moved []int
	for {
		// Send order: events in place keep their time order; moved events,
		// sorted by send key, are merged in behind everything that shares
		// their key.
		moved = moved[:0]
		for i := range events {
			if kind[i] != inPlace {
				moved = append(moved, i)
			}
		}
		sort.SliceStable(moved, func(a, b int) bool { return key[moved[a]] < key[moved[b]] })
		pos, m := 0, 0
		for i := range events {
			if kind[i] != inPlace {
				continue
			}
			for m < len(moved) && key[moved[m]] < events[i].Time {
				order[pos] = moved[m]
				pos, m = pos+1, m+1
			}
			order[pos] = i
			pos++
		}
		for ; m < len(moved); m++ {
			order[pos] = moved[m]
			pos++
		}
		for pos, idx := range order {
			times[pos] = events[idx].Time
		}
		cuts := cutTimes(times, maxLines, maxSpanSec)
		ends := make([]int64, len(cuts)) // newest time sent by the end of batch b
		frontier := int64(-1 << 62)
		for b, c := range cuts {
			for pos := c[0]; pos < c[1]; pos++ {
				batchOf[order[pos]] = b
				frontier = max(frontier, times[pos])
			}
			ends[b] = frontier
		}
		offenders := 0
		for i := range events {
			b := batchOf[i]
			switch kind[i] {
			case displaced:
				if events[i].Time <= ends[min(b+1, len(ends)-1)]-tolMs {
					kind[i] = inPlace
					offenders++
				}
			case late:
				if b < 2 || ends[b-2] < events[i+1].Time+tolMs {
					kind[i] = inPlace
					offenders++
				}
			}
		}
		if offenders == 0 {
			out := make([]raslog.Event, n)
			for pos, idx := range order {
				out[pos] = events[idx]
			}
			return out
		}
	}
}

// encode turns batch ranges over a tenant's send-order events into
// requests.
func encode(tenant int, path string, events []raslog.Event, cuts [][2]int) []request {
	reqs := make([]request, len(cuts))
	for i, c := range cuts {
		body := make([]byte, 0, 96*(c[1]-c[0]))
		for k := c[0]; k < c[1]; k++ {
			body = appendLine(body, &events[k])
		}
		reqs[i] = request{tenant: tenant, path: path, body: body, events: events[c[0]:c[1]]}
	}
	return reqs
}

// liveBudget is how many live events a run of `seconds` needs: both
// paced phases in full, a saturate phase at up to 1.3× the capacity the
// frozen rates were derived from (hi = 60 %), and the recovery tail. A
// daemon faster than that ends its saturate phase early, on an empty
// feed; capacity_eps is still events over the time actually run.
func (w workload) liveBudget(seconds float64) int {
	paced := (w.LoRate*loShare + w.HiRate*hiShare) * seconds
	sat := 1.3 * (w.HiRate / 0.6) * satShare * seconds
	n := int(paced + sat)
	if w.Recovery {
		n += recoveryTailEvents + 20000
	}
	return n + 4*w.Tenants*w.MaxLines
}

const recoveryTailEvents = 100000

// buildFeed generates the workload's whole input from seed.
func buildFeed(w workload, seed uint64, seconds float64) (*feed, error) {
	f := &feed{}
	perTenant := w.liveBudget(seconds)/w.Tenants + 1
	lanes := 1
	if w.Fleet {
		lanes = 2
	}
	type tenantReqs struct{ history, live []request }
	all := make([]tenantReqs, w.Tenants)
	for t := 0; t < w.Tenants; t++ {
		path := "/ingest/batch"
		if w.Fleet {
			path = fmt.Sprintf("/t/t%02d/ingest/batch", t)
		}
		tg := time.Now()
		history, live, thinned, err := tenantEvents(w, seed, t, perTenant)
		if err != nil {
			return nil, err
		}
		f.thinned += thinned
		f.genDuration += time.Since(tg)
		f.genEvents += len(history) + len(live)
		if w.DisplacedShare > 0 || w.LateShare > 0 {
			rng := rand.New(rand.NewSource(int64(seedFor(seed, 1000+uint64(t)))))
			live = disorder(live, w.Reorder, w.DisplacedShare, w.LateShare, rng, w.MaxLines, w.MaxSpan)
		}
		f.liveEvents += len(live)
		frontier := int64(-1 << 62)
		for i := range live {
			if live[i].Time < frontier {
				f.outOfOrder++
			}
			frontier = max(frontier, live[i].Time)
		}
		all[t] = tenantReqs{
			// History goes out strictly in order on one connection, so its
			// batches need no span cap and stay full.
			history: encode(t, path, history, cutBatches(history, w.MaxLines, 0)),
			live:    encode(t, path, live, cutBatches(live, w.MaxLines, w.MaxSpan)),
		}
	}

	// Lane l owns tenants l, l+lanes, ... and visits them round-robin.
	f.lanes = make([]lane, lanes)
	for l := range f.lanes {
		var own []tenantReqs
		for t := l; t < w.Tenants; t += lanes {
			own = append(own, all[t])
		}
		f.lanes[l].history = roundRobin(own, func(tr tenantReqs) []request { return tr.history })
		f.lanes[l].live = roundRobin(own, func(tr tenantReqs) []request { return tr.live })
	}
	return f, nil
}

func roundRobin[T any](own []T, pick func(T) []request) []request {
	var out []request
	for i := 0; ; i++ {
		added := false
		for _, o := range own {
			if reqs := pick(o); i < len(reqs) {
				out = append(out, reqs[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// tenantEvents generates one tenant's history (enough stream time for
// the first training) and live events (nLive of them, later in stream
// time). The durable workloads keep the daemon's 26-week default, so
// their history is a sparse 27 weeks (low duplication: cheap to
// generate and ingest) followed by the dense live feed; serve-predict's
// short horizon makes history simply the first weeks of one stream.
func tenantEvents(w workload, seed uint64, t int, nLive int) (history, live []raslog.Event, thinned int, err error) {
	const manyWeeks = 40000 // generation stops at the event budget, not here
	// The first training fires once the collector's watermark passes
	// -train weeks, and the sequencer holds back the newest -reorder of
	// stream time, so the history spans both plus a week.
	histWeeks := int(w.Train) + int((w.Reorder+weekSec-1)/weekSec) + 1
	switch w.Name {
	case "serve-durable":
		if history, err = generate(bgsim.ANL(seedFor(seed, 1)).Scaled(histWeeks, 0.03), 1<<30); err != nil {
			return nil, nil, 0, err
		}
		cfg := bgsim.ANL(seedFor(seed, 2)).Scaled(manyWeeks, 1)
		cfg.Start += int64(histWeeks) * weekMs
		live, err = generate(cfg, nLive)
	case "serve-fleet":
		if history, err = generate(bgsim.SDSC(seedFor(seed, 10+2*uint64(t))).Scaled(histWeeks, 0.02), 1<<30); err != nil {
			return nil, nil, 0, err
		}
		cfg := bgsim.SDSC(seedFor(seed, 11+2*uint64(t))).Scaled(manyWeeks, 1)
		cfg.ReconfigWeek = -1
		cfg.Start += int64(histWeeks) * weekMs
		live, err = generate(cfg, nLive)
	case "serve-predict":
		// SDSC at 2 % duplication is ~200 events a week, and bgsim's cost
		// is per simulated day: a feed of millions would take longer to
		// generate than to measure. An installation eight times as busy
		// (failures, chatter and false signatures alike) gives ~1.6 K
		// events a week, a third of which survive both filters, so the
		// daemon's weekly retrain recurs every ~1.6 K events.
		cfg := bgsim.SDSC(seedFor(seed, 3)).Scaled(manyWeeks, 0.02)
		cfg.ReconfigWeek = -1
		const busier = 8
		cfg.EpisodesPerWeek *= busier
		cfg.FalseSignaturesPerWeek *= busier
		noise := make(map[raslog.Facility]float64, len(cfg.NoisePerWeek))
		for fac, perWeek := range cfg.NoisePerWeek {
			noise[fac] = perWeek * busier
		}
		cfg.NoisePerWeek = noise
		var all []raslog.Event
		if all, err = generate(cfg, nLive+histWeeks*3000); err != nil {
			return nil, nil, 0, err
		}
		cut := sort.Search(len(all), func(i int) bool { return all[i].Time >= cfg.Start+int64(histWeeks)*weekMs })
		// History ends on a second boundary so live never ties with it.
		for cut < len(all) && cut > 0 && all[cut].Time == all[cut-1].Time {
			cut++
		}
		history, live = all[:cut], all[cut:]
	default:
		err = fmt.Errorf("no feed for workload %q", w.Name)
	}
	if err == nil && len(history) > 0 {
		// bgsim may place precursors before its Start; anything that would
		// arrive behind the history's tail by more than the tolerance is
		// cut so the live feed never opens with a late drop.
		floor := history[len(history)-1].Time + w.Reorder*1000
		live = live[sort.Search(len(live), func(i int) bool { return live[i].Time > floor }):]
	}
	if err == nil && (len(history) == 0 || len(live) == 0) {
		err = fmt.Errorf("%s: empty feed (history %d, live %d events)", w.Name, len(history), len(live))
	}
	if err != nil {
		return nil, nil, 0, err
	}
	before := len(history) + len(live)
	history, live = thin(history, w.Reorder), thin(live, w.Reorder)
	history, live = untilTrained(w, history, live)
	return history, live, before - len(history) - len(live), nil
}

// thin drops events, in place, from a time-ordered slice wherever a
// stretch of stream time as long as the tolerance would hold more than
// three quarters of reorderLimit. The sequencer's buffer is exactly the
// events within the tolerance of the newest one — however the batches
// are cut and whichever connection delivers first — and past
// reorderLimit it force-releases, so a storm that dense (dense ANL's
// densest minute passes 3 K events on four seeds in sixty, 3593 on seed
// 26) would fail `reorder_overflow == 0` on the seed's data, not on the
// daemon's code.
func thin(events []raslog.Event, tolSec int64) []raslog.Event {
	const most = reorderLimit * 3 / 4
	out := events[:0]
	for _, e := range events {
		if len(out) >= most && out[len(out)-most].Time > e.Time-tolSec*1000 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// untilTrained moves the head of live into history until the history
// alone makes the daemon train. The first pass fires when the sequencer
// releases an event -train weeks past the first one, and the sequencer
// holds back the newest -reorder of stream time: a sparse history that
// ends in a quiet spell, or in one burst that is still held, would leave
// warm-up waiting for a rule set that only the live feed brings (one
// tenant in about a thousand). Both slices are in time order here, and
// the history still ends between two seconds.
func untilTrained(w workload, history, live []raslog.Event) (h, l []raslog.Event) {
	trainAt := history[0].Time + int64(w.Train*weekMs)
	tolMs := w.Reorder * 1000
	fires := func(h []raslog.Event) bool {
		horizon := h[len(h)-1].Time - tolMs
		i := sort.Search(len(h), func(i int) bool { return h[i].Time > horizon })
		return i > 0 && h[i-1].Time >= trainAt
	}
	if fires(history) {
		return history, live
	}
	h = append([]raslog.Event(nil), history...)
	k := 0
	for k < len(live) && !fires(h) {
		h = append(h, live[k])
		for k++; k < len(live) && live[k].Time == live[k-1].Time; k++ {
			h = append(h, live[k])
		}
	}
	return h, live[k:]
}
