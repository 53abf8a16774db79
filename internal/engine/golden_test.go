package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

// goldenRun is what the prediction golden pins for one engine run: the
// paper's accuracy numbers, the warnings themselves (as a digest over
// time, rule and source), and the rule churn of every training pass.
type goldenRun struct {
	Name      string       `json:"name"`
	Precision float64      `json:"precision"`
	Recall    float64      `json:"recall"`
	Warnings  int          `json:"warnings"`
	Digest    string       `json:"digest"`
	Churn     []meta.Churn `json:"churn"`
}

// warningDigest hashes (time, rule ID, source) of every warning in order.
func warningDigest(res *Result) string {
	h := sha256.New()
	for _, w := range res.Warnings {
		fmt.Fprintf(h, "%d %s %d\n", w.Time, w.RuleID, w.Source)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictionGolden runs the engine end to end (Sliding and Whole, two
// small generated logs) and compares the outcome against the checked-in
// testdata/golden.json. A change that shifts a single warning or the
// churn of a single pass fails here, even if every equivalence test
// still passes against a moved reference. Regenerate deliberately with
// go test ./internal/engine -run TestPredictionGolden -update.
func TestPredictionGolden(t *testing.T) {
	var got []goldenRun
	for _, seed := range []uint64{211, 223} {
		events, start := pipeline(t, seed, 20)
		for _, policy := range []Policy{Sliding, Whole} {
			cfg := quickConfig()
			cfg.Policy = policy
			res, err := Run(events, start, 20, cfg)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, policy, err)
			}
			run := goldenRun{
				Name:      fmt.Sprintf("anl-%d/%v", seed, policy),
				Precision: res.Overall.Precision(),
				Recall:    res.Overall.Recall(),
				Warnings:  len(res.Warnings),
				Digest:    warningDigest(res),
			}
			for _, rt := range res.Retrainings {
				run.Churn = append(run.Churn, rt.Churn)
			}
			if run.Warnings == 0 || len(run.Churn) < 2 {
				t.Fatalf("%s is degenerate: %d warnings, %d passes", run.Name, run.Warnings, len(run.Churn))
			}
			got = append(got, run)
		}
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, want) {
		return
	}
	var wantRuns []goldenRun
	if err := json.Unmarshal(want, &wantRuns); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(wantRuns) != len(got) {
		t.Fatalf("%d runs, golden has %d", len(got), len(wantRuns))
	}
	for i := range got {
		if g, w := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", wantRuns[i]); g != w {
			t.Errorf("predictions moved:\n got %s\nwant %s", g, w)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the current output only in its encoding; regenerate it", path)
	}
}
