package repro

import (
	"bytes"
	"strings"
	"testing"
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
