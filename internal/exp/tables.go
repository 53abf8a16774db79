package exp

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// Table2 reproduces the log-description table: period, weeks, raw event
// count, and on-disk size of each system's RAS log.
func (s *Suite) Table2() (*Report, error) {
	r := &Report{
		ID:     "table2",
		Title:  "Log description (period, weeks, events, size)",
		Header: []string{"Log", "Period", "Weeks", "Event No.", "Log Size"},
		Notes: []string{
			"paper: ANL 112 w / 5,887,771 events / 2.27 GB; SDSC 132 w / 517,247 events / 463 MB",
		},
	}
	for _, sd := range s.Systems {
		start := time.UnixMilli(sd.Cfg.Start).UTC()
		end := start.Add(time.Duration(sd.Cfg.Weeks) * 7 * 24 * time.Hour)
		r.Rows = append(r.Rows, []string{
			sd.Cfg.Name,
			fmt.Sprintf("%s - %s", start.Format("Jan. 2, 2006"), end.Format("Jan. 2, 2006")),
			d(sd.Cfg.Weeks),
			fmt.Sprintf("%d", sd.RawCount),
			formatBytes(sd.RawBytes),
		})
	}
	return r, nil
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.0f MB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Table3 reproduces the event-category table: fatal and non-fatal class
// counts per facility.
func (s *Suite) Table3() (*Report, error) {
	cat := preprocess.NewCatalog()
	if len(s.Systems) > 0 {
		cat = s.Systems[0].Catalog
	}
	r := &Report{
		ID:     "table3",
		Title:  "Event categories (fatal / non-fatal classes per facility)",
		Header: []string{"Main Category", "No. of Fatal", "No. of Non-Fatal"},
		Notes:  []string{"paper totals: 69 fatal, 150 non-fatal (219 classes)"},
	}
	totalFatal, totalNonFatal := 0, 0
	for _, row := range cat.CountsByFacility() {
		r.Rows = append(r.Rows, []string{row.Facility.String(), d(row.Fatal), d(row.NonFatal)})
		totalFatal += row.Fatal
		totalNonFatal += row.NonFatal
	}
	r.Rows = append(r.Rows, []string{"TOTAL", d(totalFatal), d(totalNonFatal)})
	return r, nil
}

// Table4 reproduces the filtering-threshold sweep: surviving events per
// facility per threshold, for each system.
func (s *Suite) Table4() (*Report, error) {
	header := []string{"Log", "Facility"}
	for _, th := range Thresholds {
		header = append(header, fmt.Sprintf("%ds", th))
	}
	r := &Report{
		ID:     "table4",
		Title:  "Number of events surviving the filter at each threshold",
		Header: header,
		Notes: []string{
			"compression saturates near 300 s (the paper's chosen threshold, >98% compression)",
		},
	}
	for _, sd := range s.Systems {
		for _, fac := range raslog.Facilities() {
			row := []string{sd.Cfg.Name, fac.String()}
			for i := range Thresholds {
				row = append(row, d(sd.Sweep[fac][i]))
			}
			r.Rows = append(r.Rows, row)
		}
		totals := []string{sd.Cfg.Name, "TOTAL"}
		for i := range Thresholds {
			sum := 0
			for _, fac := range raslog.Facilities() {
				sum += sd.Sweep[fac][i]
			}
			totals = append(totals, d(sum))
		}
		r.Rows = append(r.Rows, totals)
	}
	return r, nil
}

// table5Sizes are the training-set sizes (months) of Table 5.
var table5Sizes = []int{3, 6, 12, 18, 24, 30}

// table5Repeats is how many times Table 5 times each step; a cell is the
// median.
const table5Repeats = 5

// medianDuration returns the median of ds (an odd count), sorting ds.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// Table5 measures operation overhead as a function of training size:
// per-learner rule-generation time, ensemble + revision time, and online
// rule-matching time. Times are wall-clock on the host (the paper used a
// 1.6 GHz Pentium; the shape — growth with training size, trivial
// matching — is what reproduces).
func (s *Suite) Table5() (*Report, error) {
	sd := s.longestSystem()
	r := &Report{
		ID:    "table5",
		Title: "Operation overhead as a function of training size",
		Header: []string{"Training Size", "Stat Rule", "Asso Rule", "Prob Dist",
			"Ensemble & Revise", "Rule Matching", "Train Events"},
		Notes: []string{
			fmt.Sprintf("measured on %s; paper: generation grows to minutes at 30 mo, matching stays <1 min", sd.Cfg.Name),
		},
	}
	weekMs := int64(raslog.MillisPerWeek)
	for _, months := range table5Sizes {
		weeks := int(float64(months) * 52.0 / 12.0)
		if weeks > sd.Cfg.Weeks {
			break
		}
		end := sd.Cfg.Start + int64(weeks)*weekMs
		var train []preprocess.TaggedEvent
		for _, e := range sd.Tagged {
			if e.Time < end {
				train = append(train, e)
			}
		}
		// A from-scratch pass over a bare view: the learners' batch scans,
		// not the maintained statistics of engine.TrainWindow. Each timing
		// cell is the median of table5Repeats runs of its step, since one
		// run of a millisecond step moves by 2x between identical runs.
		var stat, asso, prob, revise, matching [table5Repeats]time.Duration
		var kept []learner.Rule
		pre := learner.Prepare(train)
		for i := 0; i < table5Repeats; i++ {
			ml := meta.New()
			report, err := ml.Learn(pre, s.Params)
			if err != nil {
				return nil, err
			}
			ml.Revise(report, pre, s.Params)
			stat[i] = report.LearnerDurations["statistical"]
			asso[i] = report.LearnerDurations["association"]
			prob[i] = report.LearnerDurations["distribution"]
			revise[i] = report.ReviseDuration
			kept = report.Kept
		}
		// Online matching cost: feed four weeks of events through the
		// event-driven predictor.
		for i := 0; i < table5Repeats; i++ {
			pr := predictor.New(kept, s.Params)
			matchStart := time.Now()
			var test []preprocess.TaggedEvent
			for _, e := range sd.Tagged {
				if e.Time >= end && e.Time < end+4*weekMs {
					test = append(test, e)
				}
			}
			pr.ObserveAll(test)
			matching[i] = time.Since(matchStart)
		}

		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%d mo", months),
			dur(medianDuration(stat[:])),
			dur(medianDuration(asso[:])),
			dur(medianDuration(prob[:])),
			dur(medianDuration(revise[:])),
			dur(medianDuration(matching[:])),
			d(len(train)),
		})
	}
	return r, nil
}

// longestSystem returns the system with the most weeks (SDSC at full
// scale — the only one long enough for the 30-month row).
func (s *Suite) longestSystem() *SystemData {
	best := s.Systems[0]
	for _, sd := range s.Systems[1:] {
		if sd.Cfg.Weeks > best.Cfg.Weeks {
			best = sd
		}
	}
	return best
}
