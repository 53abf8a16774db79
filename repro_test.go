package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/learner"
)

// smallCfg is a fast end-to-end configuration.
func smallCfg(seed uint64) *SimulatorConfig {
	return ANL(seed).Scaled(16, 0.02)
}

func TestEndToEndPipeline(t *testing.T) {
	cfg := smallCfg(1)
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, stats := Preprocess(raw, 300)
	if stats.Input != raw.Len() {
		t.Errorf("filter input %d != raw %d", stats.Input, raw.Len())
	}
	if len(events) == 0 {
		t.Fatal("no preprocessed events")
	}
	opts := DefaultOptions()
	opts.InitialTrainWeeks = 8
	opts.TrainWeeks = 8
	res, err := Run(events, cfg.Start, cfg.Weeks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("pipeline produced no warnings")
	}
	if res.Overall.Recall() <= 0 || res.Overall.Precision() <= 0 {
		t.Errorf("degenerate accuracy: %s", res.Overall)
	}
}

func TestGenerateToRoundTrip(t *testing.T) {
	cfg := ANL(2).Scaled(2, 0.02)
	var buf bytes.Buffer
	n, err := GenerateTo(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadLog(&buf, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Generate(ANL(2).Scaled(2, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != direct.Len() {
		t.Errorf("streamed %d events, direct %d", back.Len(), direct.Len())
	}
	if !back.Sorted() {
		t.Error("streamed log unsorted")
	}
}

func TestWriteReadLog(t *testing.T) {
	raw, err := Generate(ANL(3).Scaled(1, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteLog(&buf, raw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != raw.Len() {
		t.Errorf("round trip lost events: %d vs %d", back.Len(), raw.Len())
	}
}

func TestOnlinePredictor(t *testing.T) {
	cfg := smallCfg(4)
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := Preprocess(raw, 300)
	// Split: first 12 weeks to train, rest streamed live.
	weekMs := int64(7 * 24 * 3600 * 1000)
	split := cfg.Start + 12*weekMs
	var history, live []TaggedEvent
	for _, e := range events {
		if e.Time < split {
			history = append(history, e)
		} else {
			live = append(live, e)
		}
	}
	o := NewOnline(DefaultOptions())
	// Untrained: silent.
	if w := o.Observe(live[0]); len(w) != 0 {
		t.Fatal("untrained Online warned")
	}
	stats, err := o.Train(history)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept == 0 || stats.Repo == 0 {
		t.Fatalf("training produced no rules: %+v", stats)
	}
	if len(o.Rules()) != stats.Repo {
		t.Errorf("Rules() = %d, repo = %d", len(o.Rules()), stats.Repo)
	}
	warnings := 0
	for _, e := range live {
		warnings += len(o.Observe(e))
	}
	if warnings == 0 {
		t.Error("trained Online never warned on live stream")
	}
}

func TestOnlineRetrainCarriesClock(t *testing.T) {
	o := NewOnline(DefaultOptions())
	cfg := smallCfg(5)
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := Preprocess(raw, 300)
	half := len(events) / 2
	if _, err := o.Train(events[:half]); err != nil {
		t.Fatal(err)
	}
	// Observe some events so the elapsed clock is armed.
	for _, e := range events[half : half+50] {
		o.Observe(e)
	}
	before := 0
	for _, r := range o.Rules() {
		_ = r
		before++
	}
	if _, err := o.Train(events[:half]); err != nil { // retrain
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("no rules before retrain")
	}
	// The retrained predictor must still be armed (no panic, and the
	// stream continues to be accepted).
	for _, e := range events[half+50 : half+100] {
		o.Observe(e)
	}
}

// TestOnlineRetrainKeepsWarnSpacing is the regression test for the
// retrain dedup bug: Train seeded only the elapsed-failure clock, which
// re-armed the distribution expert without its last warning, so the first
// event after a retrain could warn again inside the dedup window.
func TestOnlineRetrainKeepsWarnSpacing(t *testing.T) {
	cfg := smallCfg(4)
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := Preprocess(raw, 300)
	split := cfg.Start + 12*7*24*3600*1000
	var history, live []TaggedEvent
	for _, e := range events {
		if e.Time < split {
			history = append(history, e)
		} else {
			live = append(live, e)
		}
	}

	// Find a distribution warning whose next event arrives inside the
	// dedup window (W_P = 300 s) with no fatal in between: the fallback
	// expert is still past its trigger point there.
	ref := NewOnline(DefaultOptions())
	if _, err := ref.Train(history); err != nil {
		t.Fatal(err)
	}
	at := -1
	for i := 0; i+1 < len(live) && at < 0; i++ {
		ws := ref.Observe(live[i])
		if len(ws) > 0 && ws[0].Source == learner.Distribution &&
			!live[i+1].Fatal && live[i+1].Time-live[i].Time < 300_000 {
			at = i
		}
	}
	if at < 0 {
		t.Fatal("no distribution warning followed by an event inside the dedup window")
	}

	o := NewOnline(DefaultOptions())
	if _, err := o.Train(history); err != nil {
		t.Fatal(err)
	}
	for _, e := range live[:at+1] {
		o.Observe(e)
	}
	if _, err := o.Train(history); err != nil {
		t.Fatal(err)
	}
	if ws := o.Observe(live[at+1]); len(ws) != 0 {
		t.Fatalf("retrained predictor warned %+v %d ms after the previous warning",
			ws[0], live[at+1].Time-live[at].Time)
	}
}

func TestCatalogAndTag(t *testing.T) {
	cat := NewCatalog()
	if cat.Len() != 219 {
		t.Errorf("catalog size %d", cat.Len())
	}
	raw, err := Generate(ANL(6).Scaled(1, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	tagged := Tag(raw)
	if len(tagged) != raw.Len() {
		t.Errorf("Tag dropped events")
	}
}

func TestDocExampleCompiles(t *testing.T) {
	// The package-comment example, executed end to end on a small scale.
	cfg := ANL(42).Scaled(12, 0.02)
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := Preprocess(raw, 300)
	opts := DefaultOptions()
	opts.InitialTrainWeeks = 6
	opts.TrainWeeks = 6
	res, err := Run(events, cfg.Start, cfg.Weeks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Overall.String(), "precision") {
		t.Error("Outcome.String malformed")
	}
}
