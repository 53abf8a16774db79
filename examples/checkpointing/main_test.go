package main

import (
	"strings"
	"testing"
	"time"
)

// TestRun runs the example end to end and checks its headline: the
// predictive strategy wastes less time than hourly blind checkpoints.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	waste := map[string]time.Duration{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		if d, err := time.ParseDuration(f[4]); err == nil {
			waste[f[0]] = d
		}
	}
	periodic, predictive := waste["periodic-1h"], waste["predictive"]
	if periodic == 0 || predictive == 0 {
		t.Fatalf("strategy table missing rows:\n%s", out.String())
	}
	if predictive >= periodic {
		t.Errorf("predictive total waste %v, want below periodic-1h's %v", predictive, periodic)
	}
}
