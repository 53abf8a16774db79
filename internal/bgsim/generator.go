package bgsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// locKind tells the duplicator how to re-draw a location for a spatial copy.
type locKind int

const (
	locChipOfJob locKind = iota
	locRandomChip
	locNodeCard
	locServiceCard
	locLinkCard
)

// Generator produces a raw, time-ordered synthetic RAS log for one
// configuration. It is deterministic given Config.Seed. A Generator is
// single-use: call Generate or Stream once.
type Generator struct {
	cfg  *Config
	cat  *preprocess.Catalog
	sig  *signatureTable
	rng  *stats.RNG
	jobs *jobPool

	fatalByFac    map[raslog.Facility][]int
	nonFatalByFac map[raslog.Facility][]int
	fatalPerm     map[raslog.Facility][]int // epoch-0 fatal-mode ranking
	fatalCache    map[noiseKey][]float64    // evolved fatal weights per regime
	noisePerm     map[raslog.Facility][]int // epoch-0 popularity ranking
	noiseCache    map[noiseKey][]float64    // evolved weights per regime
	regimeCache   map[regimeKey]float64     // cumulative drift factors
	facList       []raslog.Facility
	facWeights    []float64

	// Interned location strings: the raw log repeats a small set of
	// locations millions of times, so formatting them once keeps the
	// duplicate-emission hot path allocation-free, and naming them in the
	// process vocabulary once lets every event carry its hints.
	chipLoc    []place      // by global chip index
	nodeLoc    [][]place    // [midplane][node card]
	serviceLoc []place      // by midplane
	linkLoc    [][]place    // [midplane][link]
	entrySym   []raslog.Sym // by class ID

	pending  []raslog.Event
	nextID   int64
	episodeT int64 // ms of the next failure episode
}

// NewGenerator validates the configuration and prepares a generator.
func NewGenerator(cfg *Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cat := catalogForConfig()
	g := &Generator{
		cfg:           cfg,
		cat:           cat,
		rng:           stats.NewRNG(cfg.Seed),
		fatalByFac:    make(map[raslog.Facility][]int),
		nonFatalByFac: make(map[raslog.Facility][]int),
		fatalPerm:     make(map[raslog.Facility][]int),
		fatalCache:    make(map[noiseKey][]float64),
		noisePerm:     make(map[raslog.Facility][]int),
		noiseCache:    make(map[noiseKey][]float64),
		regimeCache:   make(map[regimeKey]float64),
	}
	g.jobs = newJobPool(cfg.Topo, cfg.Jobs, g.rng.Split(), cfg.Start)
	for _, cl := range cat.Classes() {
		if cl.Fatal {
			g.fatalByFac[cl.Facility] = append(g.fatalByFac[cl.Facility], cl.ID)
		} else {
			g.nonFatalByFac[cl.Facility] = append(g.nonFatalByFac[cl.Facility], cl.ID)
		}
	}
	// Class popularity is Zipf-like with a seed-specific rank permutation
	// per facility, so different installations favour different concrete
	// events. The rankings later evolve across regimes (see
	// noiseWeightsFor / fatalWeightsFor).
	wr := stats.NewRNG(cfg.Seed ^ 0xabcdef)
	// Iterate facilities in declaration order: map ranges would consume
	// the weight RNG in a nondeterministic order.
	for _, fac := range raslog.Facilities() {
		if ids := g.fatalByFac[fac]; len(ids) > 0 {
			g.fatalPerm[fac] = wr.Perm(len(ids))
		}
		if ids := g.nonFatalByFac[fac]; len(ids) > 0 {
			g.noisePerm[fac] = wr.Perm(len(ids))
		}
		// Episode facility distribution, restricted to facilities that
		// actually have fatal classes.
		if w := cfg.FatalFacilityWeights[fac]; w > 0 && len(g.fatalByFac[fac]) > 0 {
			g.facList = append(g.facList, fac)
			g.facWeights = append(g.facWeights, w)
		}
	}
	if len(g.facList) == 0 {
		return nil, fmt.Errorf("bgsim: no facility with fatal classes has positive weight")
	}
	// Signatures use each facility's *rare* classes (bottom half of the
	// epoch-0 popularity ranking) so they stand out from chatter.
	rare := make(map[raslog.Facility][]int)
	for _, fac := range raslog.Facilities() {
		ids := g.nonFatalByFac[fac]
		perm := g.noisePerm[fac]
		if len(ids) == 0 {
			continue
		}
		half := len(ids) / 2
		if half == 0 {
			half = len(ids) // tiny pools: use everything
		}
		var pool []int
		for i, id := range ids {
			if perm[i] >= len(ids)-half {
				pool = append(pool, id)
			}
		}
		if len(pool) == 0 {
			pool = append(pool, ids...)
		}
		rare[fac] = pool
	}
	g.sig = newSignatureTable(cfg.Seed, cat, cfg.HasSignatureProb,
		cfg.DriftPeriodWeeks, cfg.DriftFraction, cfg.ReconfigWeek, rare)
	g.internLocations()
	g.episodeT = cfg.Start + g.episodeGap(cfg.Start)
	return g, nil
}

// place is a location string with its vocabulary Sym.
type place struct {
	name string
	sym  raslog.Sym
}

func newPlace(name string) place {
	name, id := raslog.Intern(name)
	return place{name, id}
}

// internLocations precomputes every location string the topology can
// emit, and the Sym of every class's entry.
func (g *Generator) internLocations() {
	topo := g.cfg.Topo
	g.chipLoc = make([]place, topo.ComputeNodes())
	for i := range g.chipLoc {
		g.chipLoc[i] = newPlace(topo.ChipLocation(i))
	}
	mids := topo.Midplanes()
	g.nodeLoc = make([][]place, mids)
	g.serviceLoc = make([]place, mids)
	g.linkLoc = make([][]place, mids)
	for m := 0; m < mids; m++ {
		g.nodeLoc[m] = make([]place, NodeCardsPerMidplane)
		for n := range g.nodeLoc[m] {
			g.nodeLoc[m][n] = newPlace(topo.NodeCardLocation(m, n))
		}
		g.serviceLoc[m] = newPlace(topo.ServiceCardLocation(m))
		g.linkLoc[m] = make([]place, 4)
		for l := range g.linkLoc[m] {
			g.linkLoc[m][l] = newPlace(topo.LinkCardLocation(m, l))
		}
	}
	g.entrySym = make([]raslog.Sym, g.cat.Len())
	for _, cl := range g.cat.Classes() {
		_, g.entrySym[cl.ID] = raslog.Intern(cl.Entry)
	}
}

// Catalog returns the catalog the generator emits classes from.
func (g *Generator) Catalog() *preprocess.Catalog { return g.cat }

// episodeGap draws the Weibull gap (ms) to the next failure episode,
// applying the post-reconfiguration rate factor when past that week.
func (g *Generator) episodeGap(now int64) int64 {
	meanGap := float64(raslog.MillisPerWeek) / g.cfg.EpisodesPerWeek
	week := g.weekOf(now)
	if g.cfg.ReconfigWeek >= 0 && week >= g.cfg.ReconfigWeek && g.cfg.ReconfigRateFactor > 0 {
		meanGap /= g.cfg.ReconfigRateFactor
	}
	meanGap /= g.regimeFactor(week, 0x7a7e, g.cfg.RegimeRateJitter)
	shape := g.cfg.EpisodeShape
	scale := meanGap / gamma1p(1/shape)
	w := stats.Weibull{Scale: scale, Shape: shape}
	gap := int64(w.Sample(g.rng))
	if gap < 1000 {
		gap = 1000
	}
	return gap
}

// gamma1p returns Gamma(1+x), used to convert a mean inter-episode gap
// into a Weibull scale: mean = scale * Gamma(1 + 1/shape).
func gamma1p(x float64) float64 { return math.Gamma(1 + x) }

// estimateEvents predicts the raw event count so Generate can preallocate
// (growing a multi-hundred-MB slice by doubling thrashes the GC).
func (g *Generator) estimateEvents() int {
	total := 0.0
	for fac, rate := range g.cfg.NoisePerWeek {
		dup := g.cfg.Dup[fac]
		total += rate * float64(g.cfg.Weeks) *
			(1 + (dup.TightMean+dup.EchoMean)*g.cfg.RawScale)
	}
	// Fatal and precursor traffic is small next to the noise volume.
	total += g.cfg.EpisodesPerWeek * float64(g.cfg.Weeks) * 8
	return int(total * 1.1)
}

func (g *Generator) weekOf(t int64) int {
	return int((t - g.cfg.Start) / raslog.MillisPerWeek)
}

type noiseKey struct {
	fac   raslog.Facility
	epoch int
}

// episodeInfo is one scheduled failure episode: its start time and its
// head fatal class (chosen at scheduling time so chatter generation can
// see which subsystem is about to fail).
type episodeInfo struct {
	time  int64
	class int
}

type regimeKey struct {
	salt  uint64
	epoch int
	post  bool
}

// regimeEpoch numbers the operating regime of a week: a new epoch every
// DriftPeriodWeeks, plus a discontinuity at the reconfiguration.
func (g *Generator) regimeEpoch(week int) int {
	epoch := 0
	if g.cfg.DriftPeriodWeeks > 0 {
		epoch = week / g.cfg.DriftPeriodWeeks
	}
	if g.cfg.ReconfigWeek >= 0 && week >= g.cfg.ReconfigWeek {
		epoch += 1_000_000
	}
	return epoch
}

// regimeFactor returns the cumulative multiplicative drift of a process
// parameter at the given week: a deterministic random walk that takes one
// step of up to ±ln(jitter) per regime, plus a larger jump at the
// reconfiguration. The walk is cumulative on purpose — production systems
// evolve *away* from their initial state (upgrades, workload growth), so
// statically-learned parameters become monotonically staler, which is the
// paper's core motivation for dynamic relearning.
func (g *Generator) regimeFactor(week int, salt uint64, jitter float64) float64 {
	if jitter <= 1 {
		return 1
	}
	realEpoch := 0
	if g.cfg.DriftPeriodWeeks > 0 {
		realEpoch = week / g.cfg.DriftPeriodWeeks
	}
	post := g.cfg.ReconfigWeek >= 0 && week >= g.cfg.ReconfigWeek
	key := regimeKey{salt: salt, epoch: realEpoch, post: post}
	if f, ok := g.regimeCache[key]; ok {
		return f
	}
	logStep := math.Log(jitter)
	logF := 0.0
	for e := 1; e <= realEpoch; e++ {
		r := stats.NewRNG(g.cfg.Seed ^ uint64(e)*0x9e3779b97f4a7c15 ^ salt)
		logF += (2*r.Float64() - 1) * logStep
	}
	if post {
		r := stats.NewRNG(g.cfg.Seed ^ 0xbadc0ffee ^ salt)
		logF += (2*r.Float64() - 1) * 1.8 * logStep
	}
	f := math.Exp(logF)
	g.regimeCache[key] = f
	return f
}

// chattersForAll reports whether a facility's chatter accompanies fault
// activity anywhere in the machine (software stack) rather than only its
// own subsystem's failures (infrastructure).
func chattersForAll(fac raslog.Facility) bool {
	return fac == raslog.Kernel || fac == raslog.App
}

// clusteredWeightsFor returns the facility's class weights for
// fault-correlated chatter in the regime containing week: the regular
// popularity weights with *detached* classes zeroed. Each class is
// attached to fault activity with probability 0.55 per regime,
// independently — the mechanism that retires one regime's chatter
// patterns and introduces the next one's.
func (g *Generator) clusteredWeightsFor(fac raslog.Facility, week int) []float64 {
	epoch := g.regimeEpoch(week)
	key := noiseKey{fac: fac, epoch: ^epoch} // distinct cache namespace
	if w, ok := g.noiseCache[key]; ok {
		return w
	}
	base := g.noiseWeightsFor(fac, week)
	w := append([]float64(nil), base...)
	attached := 0
	for class := range w {
		r := stats.NewRNG(g.cfg.Seed ^ uint64(fac)<<40 ^ uint64(class)<<16 ^
			uint64(epoch)*0xa0761d6478bd642f)
		if r.Float64() < 0.55 {
			attached++
		} else {
			w[class] = 0
		}
	}
	if attached == 0 {
		// Degenerate regime for a tiny pool: keep the base weights.
		copy(w, base)
	}
	g.noiseCache[key] = w
	return w
}

// noiseWeightsFor returns the facility's class-popularity weights for the
// regime containing week. The popularity ranking reshuffles partially at
// every regime change (fully at the reconfiguration), so chatter-pattern
// rules learned in one regime lose accuracy in later ones.
func (g *Generator) noiseWeightsFor(fac raslog.Facility, week int) []float64 {
	epoch := g.regimeEpoch(week)
	key := noiseKey{fac, epoch}
	if w, ok := g.noiseCache[key]; ok {
		return w
	}
	perm := g.evolvePerm(g.noisePerm[fac], epoch, uint64(fac)<<32)
	n := len(perm)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(perm[i]+1)
	}
	g.noiseCache[key] = w
	return w
}

// evolvePerm walks a popularity ranking through the regimes: a few
// transpositions per regime boundary (cumulative — old rankings never
// return), plus a single heavy shuffle at the reconfiguration (epochs
// past it carry the +1,000,000 marker from regimeEpoch).
func (g *Generator) evolvePerm(base []int, epoch int, salt uint64) []int {
	n := len(base)
	perm := append([]int(nil), base...)
	if n == 0 {
		return perm
	}
	post := epoch >= 1_000_000
	realEpoch := epoch % 1_000_000
	swaps := int(g.cfg.DriftFraction / 2 * float64(n))
	if swaps < 1 {
		swaps = 1
	}
	for e := 1; e <= realEpoch; e++ {
		r := stats.NewRNG(g.cfg.Seed ^ salt ^ uint64(e)*0xd1342543de82ef95)
		for s := 0; s < swaps; s++ {
			i, j := r.Intn(n), r.Intn(n)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	if post {
		// One-time heavy shuffle: the reconfiguration remaps roughly
		// everything at once, then ordinary drift resumes.
		r := stats.NewRNG(g.cfg.Seed ^ salt ^ 0xbadc0ffee)
		for s := 0; s < n; s++ {
			i, j := r.Intn(n), r.Intn(n)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

// Generate materializes the full raw log, time-sorted with sequential
// record IDs.
func (g *Generator) Generate() (*raslog.Log, error) {
	log := raslog.NewLog(g.cfg.Name, g.estimateEvents())
	err := g.Stream(func(e raslog.Event) error {
		log.Append(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return log, nil
}

// Stream generates the raw log in time order, invoking emit for every
// event. It stops early if emit returns an error.
func (g *Generator) Stream(emit func(raslog.Event) error) error {
	const dayMs = 24 * 3600 * 1000
	end := g.cfg.Start + int64(g.cfg.Weeks)*raslog.MillisPerWeek
	// Flush margin: far precursors (PrecursorFarLimit) plus the widest
	// duplicate echo (600 s) plus slack. Nothing generated later can land
	// before (dayEnd - margin).
	margin := (g.cfg.PrecursorFarLimit + 700) * 1000
	for dayStart := g.cfg.Start; dayStart < end; dayStart += dayMs {
		dayEnd := dayStart + dayMs
		if dayEnd > end {
			dayEnd = end
		}
		// Collect the day's failure episodes first: the noise level is
		// modulated by fault activity (a quiet machine writes a quiet log).
		var episodes []episodeInfo
		for g.episodeT < dayEnd {
			episodes = append(episodes, episodeInfo{
				time:  g.episodeT,
				class: g.pickFatalClass(g.episodeT),
			})
			g.episodeT += g.episodeGap(g.episodeT)
		}
		g.genNoise(dayStart, dayEnd, episodes)
		g.genFalseSignatures(dayStart, dayEnd, episodes)
		for _, ep := range episodes {
			g.genEpisode(ep.time, ep.class)
		}
		if err := g.flush(dayEnd-margin, emit); err != nil {
			return err
		}
	}
	return g.flush(end+margin, emit) // drain everything
}

// flush emits all pending events strictly older than boundary, in time
// order, assigning sequential record IDs.
func (g *Generator) flush(boundary int64, emit func(raslog.Event) error) error {
	if len(g.pending) == 0 {
		return nil
	}
	sort.Slice(g.pending, func(i, j int) bool { return g.pending[i].Time < g.pending[j].Time })
	cut := sort.Search(len(g.pending), func(i int) bool { return g.pending[i].Time >= boundary })
	for i := 0; i < cut; i++ {
		e := g.pending[i]
		g.nextID++
		e.RecordID = g.nextID
		if err := emit(e); err != nil {
			return err
		}
	}
	g.pending = append(g.pending[:0], g.pending[cut:]...)
	return nil
}

// genNoise emits each facility's background events for one day. A
// QuietNoiseFactor share of the volume is uniform background; the rest
// clusters around the day's failure episodes (normal offsets with
// ClusterSigmaSec), because RAS chatter tracks fault activity. Days
// without episodes carry only the background share.
func (g *Generator) genNoise(dayStart, dayEnd int64, episodes []episodeInfo) {
	span := dayEnd - dayStart
	bgFrac := g.cfg.QuietNoiseFactor
	if bgFrac <= 0 || bgFrac > 1 {
		bgFrac = 1
	}
	sigma := g.cfg.ClusterSigmaSec
	if sigma <= 0 {
		sigma = 900
	}
	center := g.cfg.ClusterCenterSec * 1000
	// Normalize the clustered share by the expected episode count so the
	// weekly volume stays calibrated.
	expectedToday := g.cfg.EpisodesPerWeek / 7
	for _, fac := range raslog.Facilities() {
		base := g.cfg.NoisePerWeek[fac] / 7
		if base <= 0 {
			continue
		}
		ids := g.nonFatalByFac[fac]
		if len(ids) == 0 {
			continue
		}
		// Uniform background (ungated: every class may appear).
		for i, n := 0, g.rng.Poisson(base*bgFrac); i < n; i++ {
			t := dayStart + g.rng.Int63n(span)
			class := ids[g.rng.Choose(g.noiseWeightsFor(fac, g.weekOf(t)))]
			loc, kind, job := g.placeEvent(fac, t)
			g.emitLogical(class, t, loc, kind, job)
		}
		// Activity-correlated chatter around each episode. Only classes
		// *attached* to fault activity in the current regime take part:
		// which warning types accompany failures changes with software
		// upgrades, so a generic "this event type is chattering ⇒ failure
		// imminent" rule learned in one regime loses accuracy in later
		// ones, while the per-class precursor signatures emitted by
		// genEpisode remain the deliberate association signal.
		if len(episodes) == 0 {
			continue
		}
		perEpisode := base * (1 - bgFrac) / expectedToday
		for _, ep := range episodes {
			// Infrastructure facilities chatter only ahead of their own
			// subsystem's failures (a rack overheating floods temperature
			// alerts before a MONITOR failure, not before a kernel
			// crash); software-stack facilities react to everything.
			if !chattersForAll(fac) && g.cat.Class(ep.class).Facility != fac {
				continue
			}
			week := g.weekOf(ep.time)
			weights := g.clusteredWeightsFor(fac, week)
			for i, n := 0, g.rng.Poisson(perEpisode); i < n; i++ {
				off := int64(center + g.rng.NormFloat64()*sigma*1000)
				if off > 7_200_000 {
					off = 7_200_000
				}
				if off < -7_200_000 {
					off = -7_200_000
				}
				t := ep.time + off
				if t < g.cfg.Start {
					t = g.cfg.Start
				}
				class := ids[g.rng.Choose(weights)]
				loc, kind, job := g.placeEvent(fac, t)
				g.emitLogical(class, t, loc, kind, job)
			}
		}
	}
}

// genFalseSignatures emits complete precursor signatures that are NOT
// followed by a failure — the false-alarm pressure on association rules.
// They appear amid fault activity (near an episode, like real spurious
// warnings) when the day has any, else uniformly.
func (g *Generator) genFalseSignatures(dayStart, dayEnd int64, episodes []episodeInfo) {
	rate := g.cfg.FalseSignaturesPerWeek / 7
	if rate <= 0 {
		return
	}
	n := g.rng.Poisson(rate)
	for i := 0; i < n; i++ {
		var t int64
		if len(episodes) > 0 {
			base := episodes[g.rng.Intn(len(episodes))].time
			t = base - 600_000 + g.rng.Int63n(1_200_000) // within ±10 min
			if t < g.cfg.Start {
				t = g.cfg.Start
			}
		} else {
			t = dayStart + g.rng.Int63n(dayEnd-dayStart)
		}
		class := g.pickFatalClass(t)
		sig := g.sig.signature(class, g.weekOf(t))
		if sig == nil {
			continue
		}
		loc, kind, job := g.placeEvent(g.cat.Class(class).Facility, t)
		for _, sc := range sig {
			offset := g.rng.Int63n(g.cfg.PrecursorWindow * 1000)
			g.emitLogical(sc, t-offset, loc, kind, job)
		}
	}
}

// pickFatalClass draws an episode head class at time t: facility by
// configured weights, then a Zipf-weighted class within the facility.
// Fatal classes use a steep exponent (a handful of failure modes dominate
// production logs — which is also what gives the association miner enough
// per-class support), and the ranking random-walks across regimes:
// failure modes get fixed, new ones appear, so class-specific rules
// learned statically reference modes that fade away.
func (g *Generator) pickFatalClass(t int64) int {
	fac := g.facList[g.rng.Choose(g.facWeights)]
	ids := g.fatalByFac[fac]
	return ids[g.rng.Choose(g.fatalWeightsFor(fac, g.weekOf(t)))]
}

// fatalWeightsFor returns the facility's fatal-class weights for the
// regime containing week (steep Zipf over an evolving ranking).
func (g *Generator) fatalWeightsFor(fac raslog.Facility, week int) []float64 {
	epoch := g.regimeEpoch(week)
	key := noiseKey{fac: fac, epoch: epoch}
	if w, ok := g.fatalCache[key]; ok {
		return w
	}
	perm := g.evolvePerm(g.fatalPerm[fac], epoch, 0xfa7a1^uint64(fac)<<32)
	w := make([]float64, len(perm))
	for i := range w {
		w[i] = math.Pow(float64(perm[i]+1), -1.7)
	}
	g.fatalCache[key] = w
	return w
}

// genEpisode emits one failure episode at time t with the given head
// class: optional precursor signature, the head fatal event, and an
// optional burst of follow-on fatals.
func (g *Generator) genEpisode(t int64, class int) {
	fac := g.cat.Class(class).Facility
	loc, kind, job := g.placeEvent(fac, t)

	// Precursors, before the head fatal. Nearness is decided once for the
	// whole signature: either the complete pattern lands inside the
	// rule-generation window (association rules can fire) or it all
	// arrives early (visible only to wider prediction windows).
	week := g.weekOf(t)
	if sig := g.sig.signature(class, week); sig != nil && g.rng.Bool(g.cfg.PrecursorProb) {
		near := g.rng.Bool(g.cfg.PrecursorNearFrac)
		for _, sc := range sig {
			var offsetSec int64
			if near {
				offsetSec = 15 + g.rng.Int63n(g.cfg.PrecursorWindow-20)
			} else {
				offsetSec = g.cfg.PrecursorWindow +
					g.rng.Int63n(g.cfg.PrecursorFarLimit-g.cfg.PrecursorWindow)
			}
			pt := t - offsetSec*1000
			if pt < g.cfg.Start {
				pt = g.cfg.Start
			}
			g.emitLogical(sc, pt, loc, kind, job)
		}
	}

	// Head fatal.
	g.emitLogical(class, t, loc, kind, job)

	// Burst: a failure run following the head — usually short, sometimes
	// a full network/I-O storm sweeping across the machine. The burst
	// probability itself drifts across regimes (failure modes come and
	// go), bounded away from certainty.
	bp := g.cfg.BurstProb * g.regimeFactor(week, 0xb757, g.cfg.RegimeStormJitter)
	if bp > 0.9 {
		bp = 0.9
	}
	if g.rng.Bool(bp) {
		meanExtra, gapMean, maxExtra := g.cfg.BurstMeanExtra, g.cfg.BurstGapMean, 4
		if g.rng.Bool(g.cfg.StormProb) {
			meanExtra, gapMean, maxExtra = g.cfg.StormMeanExtra, g.cfg.StormGapMean, 30
		}
		// Storm temporal density shifts across regimes.
		gapMean *= g.regimeFactor(week, 0x57a7, g.cfg.RegimeStormJitter)
		if meanExtra <= 0 {
			return
		}
		p := meanExtra / (1 + meanExtra) // geometric continuation with the given mean
		extra := 0
		for g.rng.Bool(p) {
			extra++
			if extra >= maxExtra {
				break
			}
		}
		bt := t
		for i := 0; i < extra; i++ {
			bt += int64(g.rng.ExpFloat64()*gapMean*1000) + 1000
			bclass := class
			if g.rng.Bool(0.6) {
				bclass = g.pickFatalClass(bt)
			}
			// Storm members strike different components and jobs — that is
			// why the preprocessing filter does not fold them away.
			bloc, bkind, bjob := g.placeEvent(g.cat.Class(bclass).Facility, bt)
			g.emitLogical(bclass, bt, bloc, bkind, bjob)
		}
	}
}

// placeEvent decides location, location kind and job for a logical event
// of the given facility.
func (g *Generator) placeEvent(fac raslog.Facility, t int64) (place, locKind, Job) {
	switch fac {
	case raslog.App:
		j := g.jobs.at(t)
		return g.chipLoc[g.jobs.chipOf(j)], locChipOfJob, j
	case raslog.Kernel:
		if g.rng.Bool(0.7) {
			j := g.jobs.at(t)
			return g.chipLoc[g.jobs.chipOf(j)], locChipOfJob, j
		}
		return g.chipLoc[g.rng.Intn(len(g.chipLoc))], locRandomChip, Job{}
	case raslog.Discovery, raslog.Monitor:
		m := g.rng.Intn(len(g.nodeLoc))
		return g.nodeLoc[m][g.rng.Intn(NodeCardsPerMidplane)], locNodeCard, Job{}
	case raslog.LinkCard:
		m := g.rng.Intn(len(g.linkLoc))
		return g.linkLoc[m][g.rng.Intn(4)], locLinkCard, Job{}
	default: // HARDWARE, CMCS, MMCS, BGLMASTER, SERV_NET
		return g.serviceLoc[g.rng.Intn(len(g.serviceLoc))], locServiceCard, Job{}
	}
}

// altLocation re-draws a location of the same kind for a spatial duplicate.
func (g *Generator) altLocation(kind locKind, job Job) place {
	switch kind {
	case locChipOfJob:
		if job.ID != 0 {
			return g.chipLoc[g.jobs.chipOf(job)]
		}
		fallthrough
	case locRandomChip:
		return g.chipLoc[g.rng.Intn(len(g.chipLoc))]
	case locNodeCard:
		m := g.rng.Intn(len(g.nodeLoc))
		return g.nodeLoc[m][g.rng.Intn(NodeCardsPerMidplane)]
	case locLinkCard:
		m := g.rng.Intn(len(g.linkLoc))
		return g.linkLoc[m][g.rng.Intn(4)]
	default:
		return g.serviceLoc[g.rng.Intn(len(g.serviceLoc))]
	}
}

// emitLogical appends the base event for a class plus its duplicate copies
// per the facility's DupProfile.
func (g *Generator) emitLogical(class int, t int64, loc place, kind locKind, job Job) {
	if t < g.cfg.Start {
		t = g.cfg.Start
	}
	cl := g.cat.Class(class)
	base := raslog.Event{
		Type:     "RAS",
		Time:     t,
		JobID:    job.ID,
		Location: loc.name,
		Entry:    cl.Entry,
		LocHint:  loc.sym,
		EntHint:  g.entrySym[class],
		Facility: cl.Facility,
		Severity: cl.Severity,
	}
	g.pending = append(g.pending, base)

	dup := g.cfg.Dup[cl.Facility]
	scale := g.cfg.RawScale
	nTight := g.rng.Poisson(dup.TightMean * scale)
	nEcho := g.rng.Poisson(dup.EchoMean * scale)
	for i := 0; i < nTight+nEcho; i++ {
		copyEv := base
		if i < nTight {
			copyEv.Time = t + g.rng.Int63n(10_000)
		} else {
			// Echo offsets: 10–600 s, denser near the low end, which is
			// what makes Table 4's compression keep improving up to 300 s.
			u := g.rng.Float64()
			copyEv.Time = t + 10_000 + int64(u*u*590_000)
		}
		if g.rng.Bool(dup.SpatialFrac) {
			alt := g.altLocation(kind, job)
			copyEv.Location, copyEv.LocHint = alt.name, alt.sym
		}
		g.pending = append(g.pending, copyEv)
	}
}
