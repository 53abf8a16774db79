package exp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/learner/probdist"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// Figure4 reports fatal events per day — the temporal-correlation view of
// the failure record (many failures in close proximity).
func (s *Suite) Figure4() (*Report, error) {
	r := &Report{
		ID:     "fig4",
		Title:  "Fatal events per day",
		Header: []string{"Log", "Days", "Mean/day", "Median/day", "Max/day", "Days>=5", "Days=0"},
		Notes: []string{
			"a significant number of failures happen in close proximity (storm days), matching the paper",
		},
		SeriesHeader: []string{"log", "day", "fatals"},
	}
	for _, sd := range s.Systems {
		days := sd.Cfg.Weeks * 7
		counts := make([]float64, days)
		for _, e := range sd.Tagged {
			if !e.Fatal {
				continue
			}
			idx := int((e.Time - sd.Cfg.Start) / (24 * 3600 * 1000))
			if idx >= 0 && idx < days {
				counts[idx]++
			}
		}
		sum := stats.Summarize(counts)
		over5, zero := 0, 0
		for day, c := range counts {
			if c >= 5 {
				over5++
			}
			if c == 0 {
				zero++
			}
			r.Series = append(r.Series, []string{sd.Cfg.Name, d(day), d(int(c))})
		}
		r.Rows = append(r.Rows, []string{sd.Cfg.Name, d(days), f2(sum.Mean),
			f2(sum.Median), d(int(sum.Max)), d(over5), d(zero)})
	}
	return r, nil
}

// Figure5 reproduces the inter-arrival CDF study: MLE fits of Weibull,
// exponential and log-normal to fatal inter-arrival times, with the
// best-fit family, its parameters, log-likelihood and KS distance.
func (s *Suite) Figure5() (*Report, error) {
	r := &Report{
		ID:     "fig5",
		Title:  "CDF of fatal inter-arrival times and fitted distributions",
		Header: []string{"Log", "Family", "Parameters", "LogLik", "KS", "Best"},
		Notes: []string{
			"paper (SDSC training set): Weibull, F(t)=1-exp(-(t/19984.8)^0.507936)",
		},
		SeriesHeader: []string{"log", "gap_seconds", "empirical_cdf", "best_fit_cdf"},
	}
	pl := probdist.New()
	pl.LongTermOnly = false // Figure 5 fits all inter-arrivals, like the paper's plot
	for _, sd := range s.Systems {
		best, fits, err := pl.Fit(sd.Tagged)
		if err != nil {
			return nil, err
		}
		for i, fit := range fits {
			if fit.Err != nil {
				r.Rows = append(r.Rows, []string{sd.Cfg.Name, "-", fit.Err.Error(), "-", "-", ""})
				continue
			}
			mark := ""
			if i == best {
				mark = "*"
			}
			r.Rows = append(r.Rows, []string{sd.Cfg.Name, fit.Dist.Name(),
				fit.Dist.String(), fmt.Sprintf("%.0f", fit.LogLik), f3(fit.KS), mark})
		}
		// CDF series at log-spaced gap values.
		gaps := learner.FatalGaps(sd.Tagged)
		ecdf := stats.NewECDF(gaps)
		bestDist := fits[best].Dist
		for x := 10.0; x <= 1.2e6; x *= 1.5 {
			r.Series = append(r.Series, []string{sd.Cfg.Name,
				fmt.Sprintf("%.0f", x), f3(ecdf.At(x)), f3(bestDist.CDF(x))})
		}
	}
	return r, nil
}

// figure7Methods are the four curves of Figure 7.
func figure7Methods() []struct {
	name string
	kind *learner.Kind
} {
	assoc, stat, dist := learner.Association, learner.Statistical, learner.Distribution
	return []struct {
		name string
		kind *learner.Kind
	}{
		{"static-meta", nil},
		{"association", &assoc},
		{"statistical", &stat},
		{"distribution", &dist},
	}
}

// Figure7 compares the static meta-learner against each base learner in
// isolation: weekly precision and recall with a fixed initial training
// set and no retraining or revising (the paper's "static" setting).
func (s *Suite) Figure7() (*Report, error) {
	r := &Report{
		ID:     "fig7",
		Title:  "Static meta-learning vs base predictive methods",
		Header: []string{"Log", "Method", "Mean P", "Mean R", "Early P", "Early R", "Late P", "Late R"},
		Notes: []string{
			"expected shape: meta >= every base method in recall; association has the worst recall;",
			"statistical has good precision but low recall; distribution has good recall, many false alarms;",
			"every static method decays as the system drifts",
		},
		SeriesHeader: []string{"log", "method", "week", "precision", "recall"},
	}
	// Every (system, method) cell is an independent engine run over
	// read-only data: run the grid concurrently, assemble rows in order.
	type job struct {
		sd     *SystemData
		method string
		kind   *learner.Kind
		res    *engine.Result
	}
	var jobs []*job
	for _, sd := range s.Systems {
		for _, m := range figure7Methods() {
			jobs = append(jobs, &job{sd: sd, method: m.name, kind: m.kind})
		}
	}
	err := forEach(len(jobs), s.Parallelism, func(i int) error {
		j := jobs[i]
		cfg := s.engineDefaults(j.sd)
		cfg.Policy = engine.Static
		cfg.KindFilter = j.kind
		res, err := s.run(j.sd, cfg)
		if err != nil {
			return err
		}
		j.res = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		p, rec, pe, re, pl, rl := meanEarlyLate(j.res.Weekly, j.res.TestFrom, j.sd.Cfg.Weeks)
		r.Rows = append(r.Rows, []string{j.sd.Cfg.Name, j.method,
			f2(p), f2(rec), f2(pe), f2(re), f2(pl), f2(rl)})
		for _, wp := range j.res.Weekly {
			r.Series = append(r.Series, []string{j.sd.Cfg.Name, j.method,
				d(wp.Week), f3(wp.Precision()), f3(wp.Recall())})
		}
	}
	return r, nil
}

// Figure8 reproduces the Venn diagram: which fatal events each base
// learner captures over a five-week window of the SDSC log (weeks 44–48
// in the paper).
func (s *Suite) Figure8() (*Report, error) {
	sd := s.longestSystem()
	from := 44
	if from+5 > sd.Cfg.Weeks {
		from = sd.Cfg.Weeks - 5 - 1
	}
	if from <= 0 {
		return nil, fmt.Errorf("log too short for the Venn window")
	}
	cfg := s.engineDefaults(sd)
	cfg.Policy = engine.Static
	if cfg.InitialTrainWeeks >= from {
		cfg.InitialTrainWeeks = from / 2
		cfg.TrainWeeks = cfg.InitialTrainWeeks
	}
	res, err := s.run(sd, cfg)
	if err != nil {
		return nil, err
	}
	weekMs := int64(raslog.MillisPerWeek)
	lo := sd.Cfg.Start + int64(from)*weekMs
	hi := lo + 5*weekMs
	var warnings = res.Warnings[:0:0]
	for _, w := range res.Warnings {
		if w.Time >= lo && w.Time < hi {
			warnings = append(warnings, w)
		}
	}
	var fatals []int64
	for _, t := range res.FatalTimes {
		if t >= lo && t < hi {
			fatals = append(fatals, t)
		}
	}
	sets := eval.CoverageSets(warnings, fatals)
	v := eval.MakeVenn(sets, len(fatals))
	r := &Report{
		ID:     "fig8",
		Title:  fmt.Sprintf("Venn coverage of base learners, weeks %d-%d of %s", from, from+4, sd.Cfg.Name),
		Header: []string{"Region", "Fatals"},
		Notes: []string{
			"paper (156 fatals): AR 23.7%, SR 37.2%, PD 56.4%, 67 captured by multiple learners",
			"expected shape: substantial non-overlap — no single learner captures all failures",
		},
	}
	r.Rows = append(r.Rows,
		[]string{"total fatals", d(v.Total)},
		[]string{"association only", d(v.OnlyA)},
		[]string{"statistical only", d(v.OnlyS)},
		[]string{"distribution only", d(v.OnlyP)},
		[]string{"assoc∩stat only", d(v.AS)},
		[]string{"assoc∩dist only", d(v.AP)},
		[]string{"stat∩dist only", d(v.SP)},
		[]string{"all three", d(v.ASP)},
		[]string{"uncaptured", d(v.Uncaptured)},
		[]string{"association total", fmt.Sprintf("%d (%.1f%%)", v.CoverA, pct(v.CoverA, v.Total))},
		[]string{"statistical total", fmt.Sprintf("%d (%.1f%%)", v.CoverS, pct(v.CoverS, v.Total))},
		[]string{"distribution total", fmt.Sprintf("%d (%.1f%%)", v.CoverP, pct(v.CoverP, v.Total))},
	)
	return r, nil
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Figure9 compares training-set policies: whole-history, sliding six
// months, sliding three months, and static.
func (s *Suite) Figure9() (*Report, error) {
	r := &Report{
		ID:     "fig9",
		Title:  "Training-set size policies (dynamic-whole / 6 mo / 3 mo / static)",
		Header: []string{"Log", "Policy", "Mean P", "Mean R", "Early P", "Early R", "Late P", "Late R"},
		Notes: []string{
			"expected shape: dynamic-whole ≈ dynamic-6mo best (gap < ~0.08); static decays; 3mo noisier",
		},
		SeriesHeader: []string{"log", "policy", "week", "precision", "recall"},
	}
	type job struct {
		sd     *SystemData
		policy string
		cfg    engine.Config
		res    *engine.Result
	}
	var jobs []*job
	for _, sd := range s.Systems {
		base := s.engineDefaults(sd)
		threeMo := base
		threeMo.TrainWeeks = base.TrainWeeks / 2
		policies := []struct {
			name string
			cfg  engine.Config
			pol  engine.Policy
		}{
			{"dynamic-whole", base, engine.Whole},
			{"dynamic-6mo", base, engine.Sliding},
			{"dynamic-3mo", threeMo, engine.Sliding},
			{"static", base, engine.Static},
		}
		for _, pol := range policies {
			cfg := pol.cfg
			cfg.Policy = pol.pol
			jobs = append(jobs, &job{sd: sd, policy: pol.name, cfg: cfg})
		}
	}
	err := forEach(len(jobs), s.Parallelism, func(i int) error {
		res, err := s.run(jobs[i].sd, jobs[i].cfg)
		jobs[i].res = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		p, rec, pe, re, pl, rl := meanEarlyLate(j.res.Weekly, j.res.TestFrom, j.sd.Cfg.Weeks)
		r.Rows = append(r.Rows, []string{j.sd.Cfg.Name, j.policy,
			f2(p), f2(rec), f2(pe), f2(re), f2(pl), f2(rl)})
		for _, wp := range j.res.Weekly {
			r.Series = append(r.Series, []string{j.sd.Cfg.Name, j.policy,
				d(wp.Week), f3(wp.Precision()), f3(wp.Recall())})
		}
	}
	return r, nil
}

// Figure10 varies the retraining window W_R (2, 4, 8 weeks) and inspects
// the reconfiguration dip on the system that has one.
func (s *Suite) Figure10() (*Report, error) {
	r := &Report{
		ID:     "fig10",
		Title:  "Retraining frequency W_R = 2/4/8 weeks",
		Header: []string{"Log", "W_R", "Mean P", "Mean R", "Reconfig P", "Reconfig R", "After P", "After R"},
		Notes: []string{
			"expected shape: more frequent retraining slightly better (<= ~0.06); accuracy dips around",
			"the reconfiguration week and recovers after a few retrainings",
		},
		SeriesHeader: []string{"log", "wr", "week", "precision", "recall"},
	}
	type job struct {
		sd  *SystemData
		wr  int
		res *engine.Result
	}
	var jobs []*job
	for _, sd := range s.Systems {
		for _, wr := range []int{2, 4, 8} {
			jobs = append(jobs, &job{sd: sd, wr: wr})
		}
	}
	err := forEach(len(jobs), s.Parallelism, func(i int) error {
		cfg := s.engineDefaults(jobs[i].sd)
		cfg.RetrainWeeks = jobs[i].wr
		res, err := s.run(jobs[i].sd, cfg)
		jobs[i].res = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		sd := j.sd
		p, rec, _, _, _, _ := meanEarlyLate(j.res.Weekly, j.res.TestFrom, sd.Cfg.Weeks)
		dipP, dipR := windowMean(j.res.Weekly, sd.Cfg.ReconfigWeek, sd.Cfg.ReconfigWeek+4)
		afterP, afterR := windowMean(j.res.Weekly, sd.Cfg.ReconfigWeek+8, sd.Cfg.ReconfigWeek+20)
		dip := []string{"-", "-", "-", "-"}
		if sd.Cfg.ReconfigWeek >= 0 {
			dip = []string{f2(dipP), f2(dipR), f2(afterP), f2(afterR)}
		}
		r.Rows = append(r.Rows, append([]string{sd.Cfg.Name, d(j.wr), f2(p), f2(rec)}, dip...))
		for _, wp := range j.res.Weekly {
			r.Series = append(r.Series, []string{sd.Cfg.Name, d(j.wr),
				d(wp.Week), f3(wp.Precision()), f3(wp.Recall())})
		}
	}
	return r, nil
}

// windowMean averages precision/recall over weeks [from, to).
func windowMean(weekly []eval.WeekPoint, from, to int) (p, r float64) {
	n := 0
	for _, wp := range weekly {
		if wp.Week >= from && wp.Week < to {
			p += wp.Precision()
			r += wp.Recall()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return p / float64(n), r / float64(n)
}

// Figure11 compares the dynamic framework with and without the reviser.
func (s *Suite) Figure11() (*Report, error) {
	r := &Report{
		ID:     "fig11",
		Title:  "Dynamic revising on vs off",
		Header: []string{"Log", "Reviser", "Mean P", "Mean R", "Rules (last retrain)"},
		Notes: []string{
			"expected shape: revising filters bad rules, improving accuracy (paper: up to 6%)",
		},
	}
	for _, sd := range s.Systems {
		for _, useReviser := range []bool{true, false} {
			cfg := s.engineDefaults(sd)
			ml := defaultMeta()
			ml.UseReviser = useReviser
			cfg.Meta = ml
			res, err := s.run(sd, cfg)
			if err != nil {
				return nil, err
			}
			p, rec, _, _, _, _ := meanEarlyLate(res.Weekly, res.TestFrom, sd.Cfg.Weeks)
			rules := 0
			if n := len(res.Retrainings); n > 0 {
				rules = res.Retrainings[n-1].RepoSize
			}
			label := "off"
			if useReviser {
				label = "on"
			}
			r.Rows = append(r.Rows, []string{sd.Cfg.Name, label, f2(p), f2(rec), d(rules)})
		}
	}
	return r, nil
}

// Figure12 tracks rule churn across retrainings: unchanged, added,
// removed by the meta-learner, and removed by the reviser.
func (s *Suite) Figure12() (*Report, error) {
	r := &Report{
		ID:     "fig12",
		Title:  "Number of rules changed at each retraining",
		Header: []string{"Log", "Week", "Unchanged", "Added", "RemovedByMeta", "RemovedByReviser", "RepoSize"},
		Notes: []string{
			"expected shape: constant churn; a spike at the reconfiguration retraining",
		},
		SeriesHeader: []string{"log", "week", "unchanged", "added", "removed_meta", "removed_reviser", "repo"},
	}
	for _, sd := range s.Systems {
		cfg := s.engineDefaults(sd)
		res, err := s.run(sd, cfg)
		if err != nil {
			return nil, err
		}
		for _, rt := range res.Retrainings {
			row := []string{sd.Cfg.Name, d(rt.Week), d(rt.Churn.Unchanged), d(rt.Churn.Added),
				d(rt.Churn.RemovedByMeta), d(rt.Churn.RemovedByReviser), d(rt.RepoSize)}
			r.Rows = append(r.Rows, row)
			r.Series = append(r.Series, row)
		}
	}
	return r, nil
}

// figure13Windows are the prediction windows of Figure 13, in seconds.
var figure13Windows = []int64{300, 900, 1800, 2700, 3600, 5400, 7200}

// Figure13 sweeps the prediction window W_P from 5 minutes to 2 hours.
func (s *Suite) Figure13() (*Report, error) {
	r := &Report{
		ID:     "fig13",
		Title:  "Impact of prediction window size",
		Header: []string{"Log", "W_P", "Mean P", "Mean R", "Overall P", "Overall R"},
		Notes: []string{
			"expected shape: larger windows raise recall (paper: up to 0.82 at 2 h) and lower precision",
		},
		SeriesHeader: []string{"log", "wp_seconds", "precision", "recall"},
	}
	for _, sd := range s.Systems {
		for _, wp := range figure13Windows {
			cfg := s.engineDefaults(sd)
			cfg.Params = learner.Params{WindowSec: wp}
			res, err := s.run(sd, cfg)
			if err != nil {
				return nil, err
			}
			p, rec, _, _, _, _ := meanEarlyLate(res.Weekly, res.TestFrom, sd.Cfg.Weeks)
			r.Rows = append(r.Rows, []string{sd.Cfg.Name, fmt.Sprintf("%ds", wp),
				f2(p), f2(rec), f2(res.Overall.Precision()), f2(res.Overall.Recall())})
			r.Series = append(r.Series, []string{sd.Cfg.Name, d(int(wp)),
				f3(res.Overall.Precision()), f3(res.Overall.Recall())})
		}
	}
	return r, nil
}
