package main

// -compare: per workload × metric, the median of each side, the delta,
// the metric's bound and a verdict — over the one frozen result schema.
// With a single file it prints medians and run-to-run spreads only,
// which is how a set of runs is checked for steadiness.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func loadResults(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var all []*runResult
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range all {
		if r.Schema != 1 {
			return nil, fmt.Errorf("%s: result schema %d, want 1", path, r.Schema)
		}
		if !r.Correct {
			continue // a failed run is never a data point
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// verdict classifies B against A for one metric. The spread (IQR over
// median, of the noisier side) decides whether the bound can be
// resolved at all.
func verdict(m metricSpec, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / ma
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case m.Bound == 0:
		return delta, "-"
	case max(spread(a), spread(b)) > m.Bound:
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "regressed"
	default:
		return delta, "unchanged"
	}
}

func runCompare(paths []string) error {
	if len(paths) < 1 || len(paths) > 2 {
		return fmt.Errorf("-compare takes one or two result files")
	}
	a, err := loadResults(paths[0])
	if err != nil {
		return err
	}
	b := a
	if len(paths) == 2 {
		if b, err = loadResults(paths[1]); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(a))
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	regressed := 0
	for _, w := range names {
		fmt.Printf("== %s\n", w)
		if len(paths) == 2 {
			fmt.Printf("  %-38s %14s %14s %8s %7s %8s %8s  %s\n", "metric", "median A", "median B", "delta", "bound", "spread A", "spread B", "verdict")
		} else {
			fmt.Printf("  %-38s %14s %5s %8s %7s\n", "metric", "median", "runs", "spread", "bound")
		}
		for _, list := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range list {
				va, vb := a[w][m.Name], b[w][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				if len(paths) == 1 {
					fmt.Printf("  %-38s %14.6g %5d %7.1f%% %6.0f%%\n", m.Name, median(va), len(va), 100*spread(va), 100*m.Bound)
					continue
				}
				delta, v := verdict(m, va, vb)
				if v == "regressed" {
					regressed++
				}
				fmt.Printf("  %-38s %14.6g %14.6g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
					m.Name, median(va), median(vb), 100*delta, 100*m.Bound, 100*spread(va), 100*spread(vb), v)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric × workload pairs regressed beyond their bound", regressed)
	}
	return nil
}
