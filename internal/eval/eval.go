// Package eval scores failure predictions against the failures that
// actually occurred, producing the paper's two accuracy metrics (§5.1):
//
//	precision = Tp / (Tp + Fp)    recall = Tp / (Tp + Fn)
//
// A warning is a true positive when at least one fatal event falls inside
// its prediction window (strictly after the triggering instant — a rule
// must predict a *coming* failure, not the one that triggered it). A fatal
// event counts as captured (not a false negative) when at least one
// warning's window covers it. The package also provides the weekly time
// series used by Figures 7 and 9–11 and the base-learner coverage sets of
// the Figure 8 Venn diagram.
package eval

import (
	"fmt"
	"sort"

	"repro/internal/learner"
	"repro/internal/predictor"
)

// Outcome tallies prediction results over a stream.
type Outcome struct {
	TP int // warnings whose window contained a failure
	FP int // warnings whose window did not
	FN int // failures no warning covered
	// Captured is the number of distinct failures covered by a warning
	// (TP counts warnings; Captured counts failures).
	Captured int
	Fatals   int
}

// Precision returns Tp/(Tp+Fp), or 0 when no warnings were issued.
func (o Outcome) Precision() float64 {
	if o.TP+o.FP == 0 {
		return 0
	}
	return float64(o.TP) / float64(o.TP+o.FP)
}

// Recall returns Captured/Fatals — the proportion of failures predicted —
// or 0 when there were no failures.
func (o Outcome) Recall() float64 {
	if o.Fatals == 0 {
		return 0
	}
	return float64(o.Captured) / float64(o.Fatals)
}

// Add accumulates another outcome.
func (o *Outcome) Add(other Outcome) {
	o.TP += other.TP
	o.FP += other.FP
	o.FN += other.FN
	o.Captured += other.Captured
	o.Fatals += other.Fatals
}

// String formats the outcome for reports.
func (o Outcome) String() string {
	return fmt.Sprintf("precision=%.3f recall=%.3f (TP=%d FP=%d FN=%d fatals=%d)",
		o.Precision(), o.Recall(), o.TP, o.FP, o.FN, o.Fatals)
}

// Match scores warnings against fatal timestamps (ms). Both slices must be
// time-sorted. A fatal at time t is covered by a warning w when
// w.Time < t <= w.Deadline.
func Match(warnings []predictor.Warning, fatalTimes []int64) Outcome {
	out := Outcome{Fatals: len(fatalTimes)}
	covered := make([]bool, len(fatalTimes))
	for _, w := range warnings {
		// Find fatals in (w.Time, w.Deadline].
		lo := sort.Search(len(fatalTimes), func(i int) bool { return fatalTimes[i] > w.Time })
		hit := false
		for i := lo; i < len(fatalTimes) && fatalTimes[i] <= w.Deadline; i++ {
			covered[i] = true
			hit = true
		}
		if hit {
			out.TP++
		} else {
			out.FP++
		}
	}
	for _, c := range covered {
		if c {
			out.Captured++
		}
	}
	out.FN = out.Fatals - out.Captured
	return out
}

// WeekPoint is one week of a precision/recall time series.
type WeekPoint struct {
	Week int // zero-based week index
	Outcome
}

// Weekly buckets warnings and fatals into week-sized bins relative to
// start (ms) and scores each bin separately, producing the x-axis of the
// paper's accuracy figures. Weeks with no fatal events and no warnings
// are omitted.
func Weekly(warnings []predictor.Warning, fatalTimes []int64, start int64, weeks int) []WeekPoint {
	const weekMs = 7 * 24 * 3600 * 1000
	warnByWeek := make([][]predictor.Warning, weeks)
	for _, w := range warnings {
		idx := int((w.Time - start) / weekMs)
		if idx >= 0 && idx < weeks {
			warnByWeek[idx] = append(warnByWeek[idx], w)
		}
	}
	fatalByWeek := make([][]int64, weeks)
	for _, t := range fatalTimes {
		idx := int((t - start) / weekMs)
		if idx >= 0 && idx < weeks {
			fatalByWeek[idx] = append(fatalByWeek[idx], t)
		}
	}
	var out []WeekPoint
	for wk := 0; wk < weeks; wk++ {
		if len(warnByWeek[wk]) == 0 && len(fatalByWeek[wk]) == 0 {
			continue
		}
		// Score a week's warnings against all fatals near it so windows
		// spanning a week boundary still count.
		lo := start + int64(wk)*weekMs
		hi := lo + weekMs + 2*3600*1000
		var near []int64
		for _, t := range fatalTimes {
			if t >= lo && t <= hi {
				near = append(near, t)
			}
		}
		o := Match(warnByWeek[wk], near)
		// Recount fatals/captures for the week proper.
		o.Fatals = len(fatalByWeek[wk])
		if o.Captured > o.Fatals {
			o.Captured = o.Fatals
		}
		o.FN = o.Fatals - o.Captured
		out = append(out, WeekPoint{Week: wk, Outcome: o})
	}
	return out
}

// MeanPrecisionRecall averages a weekly series (weeks with no warnings
// count precision 0 only if they had fatals to predict). Nothing outside
// tests calls it yet: it stays as the offline reference that the
// daemon's live precision and recall (planned in ROADMAP.md) are to be
// checked against.
func MeanPrecisionRecall(series []WeekPoint) (precision, recall float64) {
	if len(series) == 0 {
		return 0, 0
	}
	var p, r float64
	for _, wp := range series {
		p += wp.Precision()
		r += wp.Recall()
	}
	n := float64(len(series))
	return p / n, r / n
}

// CoverageSets returns, per base-learner family, the set of fatal indices
// captured by that family's warnings — the input to the Figure 8 Venn
// diagram. fatalTimes must be sorted.
func CoverageSets(warnings []predictor.Warning, fatalTimes []int64) map[learner.Kind]map[int]bool {
	sets := map[learner.Kind]map[int]bool{
		learner.Association:  {},
		learner.Statistical:  {},
		learner.Distribution: {},
	}
	for _, w := range warnings {
		set := sets[w.Source]
		lo := sort.Search(len(fatalTimes), func(i int) bool { return fatalTimes[i] > w.Time })
		for i := lo; i < len(fatalTimes) && fatalTimes[i] <= w.Deadline; i++ {
			set[i] = true
		}
	}
	return sets
}

// Venn holds the seven-region breakdown of three coverage sets (Figure 8).
type Venn struct {
	Total                  int // fatals in the period
	OnlyA, OnlyS, OnlyP    int
	AS, AP, SP             int // pairwise-only intersections
	ASP                    int // captured by all three
	Uncaptured             int
	CoverA, CoverS, CoverP int // per-learner totals
}

// MakeVenn computes the Venn regions from per-family coverage sets over
// total fatals.
func MakeVenn(sets map[learner.Kind]map[int]bool, total int) Venn {
	v := Venn{Total: total}
	a := sets[learner.Association]
	s := sets[learner.Statistical]
	p := sets[learner.Distribution]
	v.CoverA, v.CoverS, v.CoverP = len(a), len(s), len(p)
	for i := 0; i < total; i++ {
		ina, ins, inp := a[i], s[i], p[i]
		switch {
		case ina && ins && inp:
			v.ASP++
		case ina && ins:
			v.AS++
		case ina && inp:
			v.AP++
		case ins && inp:
			v.SP++
		case ina:
			v.OnlyA++
		case ins:
			v.OnlyS++
		case inp:
			v.OnlyP++
		default:
			v.Uncaptured++
		}
	}
	return v
}

// LeadTimeStats summarizes how far ahead of each captured failure the
// earliest covering warning fired — the quantity proactive fault-tolerance
// actions (checkpointing, migration, job holds) actually consume.
type LeadTimeStats struct {
	Captured int
	// MeanSec / MedianSec / MinSec / MaxSec describe the lead times, in
	// seconds, of captured failures.
	MeanSec, MedianSec, MinSec, MaxSec float64
}

// LeadTimes computes, for every captured fatal, the lead time to the
// earliest warning whose window covers it. Both inputs must be
// time-sorted. Uncaptured fatals are excluded (recall measures those).
// Nothing outside tests calls it yet: it stays as the offline reference
// for the daemon's live lead-time accounting (planned in ROADMAP.md).
func LeadTimes(warnings []predictor.Warning, fatalTimes []int64) LeadTimeStats {
	var leads []float64
	for _, t := range fatalTimes {
		best := int64(-1)
		for _, w := range warnings {
			if w.Time >= t {
				break
			}
			if t <= w.Deadline {
				best = w.Time
				break // warnings sorted: the first cover is the earliest
			}
		}
		if best >= 0 {
			leads = append(leads, float64(t-best)/1000)
		}
	}
	if len(leads) == 0 {
		return LeadTimeStats{}
	}
	sorted := append([]float64(nil), leads...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, l := range leads {
		sum += l
	}
	return LeadTimeStats{
		Captured:  len(leads),
		MeanSec:   sum / float64(len(leads)),
		MedianSec: sorted[len(sorted)/2],
		MinSec:    sorted[0],
		MaxSec:    sorted[len(sorted)-1],
	}
}
