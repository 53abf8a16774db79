package obsv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedExpositions renders the registries FuzzParseText's checked-in
// corpus (testdata/fuzz/FuzzParseText) holds, keyed by corpus file name.
// Each registry has a counter, a gauge, a labelled series and a
// histogram: fresh, after observations (one label value needs escaping),
// and two of them merged under tenant labels the way fleet mode exposes
// them.
func seedExpositions(tb testing.TB) map[string]string {
	build := func(observe bool) *Registry {
		r := NewRegistry()
		c := r.Counter("events_total", "Events ingested.")
		g := r.Gauge("queue_depth", "Intake queue depth.")
		l := r.Counter("requests_total", "Requests by route.", Label{Key: "route", Value: `/t/{tenant}/"ingest" \ batch`})
		h := r.Histogram("latency_seconds", "Stage latency.", []float64{0.001, 0.01, 0.1}, Label{Key: "stage", Value: "seq"})
		if observe {
			c.Add(42)
			g.Set(-3.5)
			l.Inc()
			h.Observe(0.005)
			h.Observe(2)
		}
		return r
	}
	render := func(parts ...LabeledRegistry) string {
		var sb strings.Builder
		if err := WriteMergedPrometheus(&sb, parts...); err != nil {
			tb.Fatal(err)
		}
		return sb.String()
	}
	return map[string]string{
		"fresh":    render(LabeledRegistry{Registry: build(false)}),
		"observed": render(LabeledRegistry{Registry: build(true)}),
		"merged": render(
			LabeledRegistry{Registry: build(true), Labels: []Label{{Key: "tenant", Value: "a"}}},
			LabeledRegistry{Registry: build(false), Labels: []Label{{Key: "tenant", Value: "b\nc"}}}),
	}
}

// sampleLines returns the lines of text that ParseText reads as samples:
// neither blank nor a comment.
func sampleLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// FuzzParseText feeds arbitrary text to the exposition parser: it must
// never panic, and an accepted input yields exactly one series per
// sample line. Each seed, the writer's own output, must be accepted with
// every series it exposes. The checked-in seed files must match the
// current writer's output of seedExpositions.
func FuzzParseText(f *testing.F) {
	seeds := map[string][]string{} // exposition -> the series it exposes
	for name, text := range seedExpositions(f) {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", text)
		if got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseText", name)); err != nil || string(got) != want {
			f.Errorf("testdata/fuzz/FuzzParseText/%s is not the current exposition; it should read:\n%s", name, want)
		}
		var series []string
		for _, line := range sampleLines(text) {
			series = append(series, line[:strings.LastIndexByte(line, ' ')])
		}
		seeds[text] = series
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseText(strings.NewReader(text))
		series, seed := seeds[text]
		if err != nil {
			if seed {
				t.Fatalf("seed exposition rejected: %v\n%s", err, text)
			}
			return
		}
		if n := len(sampleLines(text)); len(got) != n {
			t.Fatalf("accepted %d sample lines but returned %d series", n, len(got))
		}
		for _, s := range series {
			if _, ok := got[s]; !ok {
				t.Errorf("seed series %s missing from ParseText's result", s)
			}
		}
	})
}
