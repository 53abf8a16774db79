package bgsim

import (
	"fmt"

	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// DupProfile controls how heavily one *unique* (logical) event of a
// facility is duplicated in the raw log. Every logical event is emitted
// once and then copied:
//
//   - TightMean extra copies (Poisson) at offsets within 10 s — the
//     sub-second polling-agent storm that dominates the raw volume;
//   - EchoMean extra copies (Poisson) at offsets of 10–600 s — the
//     lingering repeats that make compression keep improving up to the
//     paper's chosen 300 s threshold (Table 4);
//   - each copy lands on a different location with probability
//     SpatialFrac (exercising spatial compression) and otherwise repeats
//     at the same location (exercising temporal compression).
type DupProfile struct {
	TightMean   float64
	EchoMean    float64
	SpatialFrac float64
}

// Config fully describes one synthetic installation. Use the ANL and SDSC
// presets as starting points; every knob is exported so experiments can
// perturb a single mechanism at a time.
type Config struct {
	Name  string
	Seed  uint64
	Start int64 // ms since epoch of the first logged week
	Weeks int
	Topo  Topology
	Jobs  int // concurrent jobs

	// Failure episode process: inter-episode gaps are Weibull with the
	// given shape; the scale is derived from EpisodesPerWeek.
	EpisodesPerWeek float64
	EpisodeShape    float64
	// Bursts: with probability BurstProb an episode continues past its
	// head failure. Most bursts are minor (Geometric(BurstMeanExtra)
	// extra fatals at exponential gaps of mean BurstGapMean seconds);
	// with probability StormProb the burst is instead a network/I-O
	// *storm* — a long run of failures (Geometric(StormMeanExtra), gaps
	// of mean StormGapMean) that makes "k failures within W_P" strongly
	// predictive, reproducing the paper's "four failures within 300
	// seconds → another with probability 99%".
	BurstProb      float64
	BurstMeanExtra float64
	BurstGapMean   float64
	StormProb      float64
	StormMeanExtra float64
	StormGapMean   float64
	// FatalFacilityWeights distributes episode head failures over
	// facilities (only facilities with fatal classes are eligible).
	FatalFacilityWeights map[raslog.Facility]float64

	// Precursor structure.
	HasSignatureProb float64 // fraction of fatal classes with signatures
	PrecursorProb    float64 // P(signature emitted | class has one)
	// PrecursorNearFrac is the probability that an emitted signature lands
	// *entirely* within PrecursorWindow of the failure (an association
	// rule can complete); otherwise the whole signature arrives early, in
	// (PrecursorWindow, PrecursorFarLimit] — visible only to larger
	// prediction windows, which is what drives the Figure 13 trade-off.
	PrecursorNearFrac float64
	PrecursorWindow   int64 // seconds; the paper's rule-generation window (300)
	PrecursorFarLimit int64 // seconds; far precursors fall in (window, limit]
	// FalseSignaturesPerWeek emits complete signatures not followed by a
	// failure — the false-alarm pressure on association rules.
	FalseSignaturesPerWeek float64

	// Background noise: unique non-fatal events per facility per week.
	NoisePerWeek map[raslog.Facility]float64
	// QuietNoiseFactor is the fraction of each facility's noise emitted as
	// a uniform background; the remainder clusters around failure episodes
	// (offsets drawn from a normal with ClusterSigmaSec). RAS chatter on
	// the production machines correlates strongly with fault activity — a
	// quiet system writes a quiet log — and this correlation is what
	// bounds the distribution expert's false alarms. 1 = all uniform.
	QuietNoiseFactor float64
	// ClusterCenterSec and ClusterSigmaSec shape the fault-correlated
	// chatter: offsets from the episode head are N(ClusterCenterSec,
	// ClusterSigmaSec²) seconds, capped at ±2 h. The presets center the
	// chatter *after* the failure (+240 s): most fault-time traffic is
	// reaction — diagnostics, cleanup, error summaries — so generic
	// "chatter ⇒ failure imminent" patterns stay imprecise, and the
	// deliberately-planted precursor signatures remain the association
	// signal. The Gaussian's leading tail still puts a couple of events
	// shortly before the head, which is what arms the event-driven
	// distribution expert ahead of overdue failures.
	ClusterCenterSec float64
	ClusterSigmaSec  float64
	// Dup profiles per facility (applied to noise, precursors and fatals
	// of that facility alike).
	Dup map[raslog.Facility]DupProfile

	// Dynamics. Every DriftPeriodWeeks the system enters a new *regime*
	// (software upgrades, workload shifts): a DriftFraction of precursor
	// signatures re-draw, the noise-class popularity ranking partially
	// reshuffles, and the failure process parameters jitter. This is what
	// makes statically-learned rules of every family decay (Figures 7/9)
	// while dynamic retraining tracks the system.
	DriftPeriodWeeks int     // weeks between regime changes (0 = frozen)
	DriftFraction    float64 // fraction of signatures re-drawn per regime
	// RegimeRateJitter and RegimeStormJitter bound the per-regime random
	// *walk step* on the episode rate and on storm gaps (each regime
	// multiplies the previous factor by up to ±the jitter; drift is
	// cumulative; values <= 1 disable).
	RegimeRateJitter   float64
	RegimeStormJitter  float64
	ReconfigWeek       int     // -1 = no reconfiguration
	ReconfigRateFactor float64 // episode-rate multiplier after the reconfiguration

	// RawScale scales the duplication volume only (1 = calibrated to the
	// paper's raw log sizes). Lower it for fast tests; the *unique* event
	// structure, and therefore everything the learners see after
	// filtering, is unchanged.
	RawScale float64
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	if c.Weeks <= 0 {
		return fmt.Errorf("bgsim: Weeks = %d, need > 0", c.Weeks)
	}
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	if c.Jobs <= 0 {
		return fmt.Errorf("bgsim: Jobs = %d, need > 0", c.Jobs)
	}
	if c.EpisodesPerWeek <= 0 {
		return fmt.Errorf("bgsim: EpisodesPerWeek = %g, need > 0", c.EpisodesPerWeek)
	}
	if c.EpisodeShape <= 0 {
		return fmt.Errorf("bgsim: EpisodeShape = %g, need > 0", c.EpisodeShape)
	}
	if c.BurstProb < 0 || c.BurstProb > 1 {
		return fmt.Errorf("bgsim: BurstProb = %g out of [0,1]", c.BurstProb)
	}
	if c.StormProb < 0 || c.StormProb > 1 {
		return fmt.Errorf("bgsim: StormProb = %g out of [0,1]", c.StormProb)
	}
	if c.QuietNoiseFactor < 0 || c.QuietNoiseFactor > 1 {
		return fmt.Errorf("bgsim: QuietNoiseFactor = %g out of [0,1]", c.QuietNoiseFactor)
	}
	if c.PrecursorWindow <= 0 || c.PrecursorFarLimit < c.PrecursorWindow {
		return fmt.Errorf("bgsim: precursor windows %d/%d invalid",
			c.PrecursorWindow, c.PrecursorFarLimit)
	}
	if c.RawScale < 0 {
		return fmt.Errorf("bgsim: RawScale = %g, need >= 0", c.RawScale)
	}
	weightTotal := 0.0
	for fac, w := range c.FatalFacilityWeights {
		if !fac.Valid() {
			return fmt.Errorf("bgsim: invalid facility %d in FatalFacilityWeights", fac)
		}
		weightTotal += w
	}
	if weightTotal <= 0 {
		return fmt.Errorf("bgsim: FatalFacilityWeights sum to %g, need > 0", weightTotal)
	}
	return nil
}

// ANL returns the configuration calibrated to the Argonne BG/L log
// (Table 2: 1 rack, 112 weeks starting 2005-01-21, ~5.9 M raw events —
// dominated by KERNEL machine-check traffic from the site's frequent
// diagnostics — compressing to ~46 K at the 300 s threshold).
func ANL(seed uint64) *Config {
	return &Config{
		Name:  "ANL-BGL",
		Seed:  seed,
		Start: 1106265600000, // 2005-01-21 00:00 UTC
		Weeks: 112,
		Topo:  Topology{Racks: 1, IONodes: 32},
		Jobs:  6,

		EpisodesPerWeek: 10,
		EpisodeShape:    0.55,
		BurstProb:       0.35,
		BurstMeanExtra:  1.2,
		BurstGapMean:    110,
		StormProb:       0.35,
		StormMeanExtra:  9,
		StormGapMean:    45,
		FatalFacilityWeights: map[raslog.Facility]float64{
			raslog.Kernel: 0.75, raslog.App: 0.08, raslog.Monitor: 0.09,
			raslog.BGLMaster: 0.02, raslog.Hardware: 0.02, raslog.LinkCard: 0.04,
		},

		HasSignatureProb:       0.85,
		PrecursorProb:          0.90,
		PrecursorNearFrac:      0.75,
		PrecursorWindow:        300,
		PrecursorFarLimit:      7200,
		FalseSignaturesPerWeek: 1.2,

		NoisePerWeek: map[raslog.Facility]float64{
			raslog.App: 12, raslog.BGLMaster: 1.0, raslog.CMCS: 2.5,
			raslog.Discovery: 5.2, raslog.Hardware: 4.8, raslog.Kernel: 190,
			raslog.LinkCard: 0.08, raslog.MMCS: 3.9, raslog.Monitor: 138,
			raslog.ServNet: 0.01,
		},
		QuietNoiseFactor: 0.003,
		ClusterCenterSec: 180,
		ClusterSigmaSec:  240,
		Dup: map[raslog.Facility]DupProfile{
			raslog.App:       {TightMean: 3.0, EchoMean: 0.6, SpatialFrac: 0.7},
			raslog.BGLMaster: {TightMean: 0.08, EchoMean: 0.02},
			raslog.CMCS:      {TightMean: 0.05, EchoMean: 0.02},
			raslog.Discovery: {TightMean: 25, EchoMean: 4, SpatialFrac: 0.9},
			raslog.Hardware:  {TightMean: 2, EchoMean: 0.4, SpatialFrac: 0.5},
			raslog.Kernel:    {TightMean: 205, EchoMean: 1.3, SpatialFrac: 0.6},
			raslog.LinkCard:  {TightMean: 4, EchoMean: 0.8, SpatialFrac: 0.3},
			raslog.MMCS:      {TightMean: 1, EchoMean: 0.15, SpatialFrac: 0.2},
			raslog.Monitor:   {TightMean: 1.4, EchoMean: 0.2, SpatialFrac: 0.5},
			raslog.ServNet:   {},
		},

		DriftPeriodWeeks:   12,
		DriftFraction:      0.20,
		RegimeRateJitter:   1.5,
		RegimeStormJitter:  1.7,
		ReconfigWeek:       -1,
		ReconfigRateFactor: 1,
		RawScale:           1,
	}
}

// SDSC returns the configuration calibrated to the San Diego BG/L log
// (Table 2: 3 racks, 132 weeks starting 2004-12-06, ~517 K raw events;
// data-intensive configuration with 384 I/O nodes; no MONITOR traffic;
// a major system reconfiguration between weeks 60 and 64).
func SDSC(seed uint64) *Config {
	return &Config{
		Name:  "SDSC-BGL",
		Seed:  seed,
		Start: 1102291200000, // 2004-12-06 00:00 UTC
		Weeks: 132,
		Topo:  Topology{Racks: 3, IONodes: 384},
		Jobs:  16,

		EpisodesPerWeek: 9,
		EpisodeShape:    0.55,
		BurstProb:       0.48,
		BurstMeanExtra:  1.2,
		BurstGapMean:    100,
		StormProb:       0.45,
		StormMeanExtra:  9,
		StormGapMean:    40,
		FatalFacilityWeights: map[raslog.Facility]float64{
			raslog.Kernel: 0.80, raslog.App: 0.10, raslog.BGLMaster: 0.02,
			raslog.Hardware: 0.02, raslog.LinkCard: 0.06,
		},

		HasSignatureProb:       0.85,
		PrecursorProb:          0.90,
		PrecursorNearFrac:      0.75,
		PrecursorWindow:        300,
		PrecursorFarLimit:      7200,
		FalseSignaturesPerWeek: 1.2,

		NoisePerWeek: map[raslog.Facility]float64{
			raslog.App: 4.2, raslog.BGLMaster: 0.7, raslog.CMCS: 2.7,
			raslog.Discovery: 4.2, raslog.Hardware: 2.0, raslog.Kernel: 12,
			raslog.LinkCard: 0.6, raslog.MMCS: 3.8, raslog.Monitor: 0,
			raslog.ServNet: 0.03,
		},
		QuietNoiseFactor: 0.003,
		ClusterCenterSec: 180,
		ClusterSigmaSec:  240,
		Dup: map[raslog.Facility]DupProfile{
			raslog.App:       {TightMean: 38, EchoMean: 2, SpatialFrac: 0.85},
			raslog.BGLMaster: {TightMean: 0.15, EchoMean: 0.05},
			raslog.CMCS:      {TightMean: 0.1, EchoMean: 0.05},
			raslog.Discovery: {TightMean: 95, EchoMean: 6, SpatialFrac: 0.9},
			raslog.Hardware:  {TightMean: 4, EchoMean: 0.5, SpatialFrac: 0.5},
			raslog.Kernel:    {TightMean: 112, EchoMean: 1.5, SpatialFrac: 0.6},
			raslog.LinkCard:  {TightMean: 1, EchoMean: 0.2, SpatialFrac: 0.3},
			raslog.MMCS:      {TightMean: 0.6, EchoMean: 0.1, SpatialFrac: 0.2},
			raslog.Monitor:   {},
			raslog.ServNet:   {},
		},

		DriftPeriodWeeks:   12,
		DriftFraction:      0.20,
		RegimeRateJitter:   1.5,
		RegimeStormJitter:  1.7,
		ReconfigWeek:       62,
		ReconfigRateFactor: 1.2,
		RawScale:           1,
	}
}

// Scaled returns a copy of c with the given number of weeks and raw-volume
// scale — the standard way tests and examples shrink a preset.
func (c *Config) Scaled(weeks int, rawScale float64) *Config {
	out := *c
	out.Weeks = weeks
	out.RawScale = rawScale
	// Maps are shared intentionally: presets never mutate them.
	if out.ReconfigWeek >= weeks {
		out.ReconfigWeek = -1
	}
	return &out
}

// catalogForConfig builds the standard catalog (all presets share it).
func catalogForConfig() *preprocess.Catalog { return preprocess.NewCatalog() }
