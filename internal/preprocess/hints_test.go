package preprocess_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// decision is what the filter stages and the categorizer made of one
// event.
type decision struct {
	temporal, spatial bool
	class             int
	fatal             bool
}

func decide(events []raslog.Event, f preprocess.Filter, zer *preprocess.Categorizer) []decision {
	temporal, spatial := preprocess.NewTemporalStage(f), preprocess.NewSpatialStage(f)
	out := make([]decision, len(events))
	for i, e := range events {
		d := &out[i]
		d.temporal = temporal.Observe(e)
		d.spatial = d.temporal && spatial.Observe(e)
		d.class, d.fatal = zer.Categorize(e)
	}
	return out
}

// randomTextLog is a time-ordered text log over a small vocabulary: few
// locations and jobs so both compressions fire, and entries drawn from
// the catalog (under their own facility or another) or unknown to it.
func randomTextLog(rng *rand.Rand, cat *preprocess.Catalog, n int) []byte {
	classes := cat.Classes()
	var buf bytes.Buffer
	sec := int64(1_100_000_000)
	for i := 0; i < n; i++ {
		sec += int64(rng.Intn(90))
		cl := classes[rng.Intn(len(classes))]
		entry, fac := cl.Entry, cl.Facility
		switch rng.Intn(6) {
		case 0:
			entry = fmt.Sprintf("hint property entry %d", rng.Intn(5))
		case 1:
			fac = raslog.Facility(rng.Intn(int(raslog.NumFacilities)))
		}
		fmt.Fprintf(&buf, "%d|RAS|%d|%d|R%02d-M%d-N%d|%s|%s|%s\n", i, sec, rng.Intn(3),
			rng.Intn(4), rng.Intn(2), rng.Intn(3), fac, raslog.Severity(rng.Intn(int(raslog.NumSeverities))), entry)
	}
	return buf.Bytes()
}

// TestHintsNeverChangeResults is the hints' property test: the temporal
// and spatial stages and Categorize decide exactly the same for events
// whose hints are zero, foreign or stale (Location and Entry rewritten
// after decoding, in the vocabulary's copies or in private ones) as for
// the same events freshly decoded.
func TestHintsNeverChangeResults(t *testing.T) {
	zer := preprocess.NewCategorizer(preprocess.NewCatalog())
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fresh, err := raslog.ReadLog(bytes.NewReader(randomTextLog(rng, zer.Catalog(), 3000)), "fresh")
		if err != nil {
			t.Fatal(err)
		}
		variants := map[string][]raslog.Event{}
		vary := func(name string, hint func(i int, e *raslog.Event)) {
			events := slices.Clone(fresh.Events)
			for i := range events {
				hint(i, &events[i])
			}
			variants[name] = events
		}
		vary("zero", func(_ int, e *raslog.Event) { e.LocHint, e.EntHint = 0, 0 })
		vary("foreign", func(_ int, e *raslog.Event) {
			e.LocHint, e.EntHint = raslog.Sym(rng.Intn(64)), raslog.Sym(rng.Uint32())
		})
		vary("stale", func(i int, e *raslog.Event) {
			// Another event's hints, as if this one's fields were written
			// over it after it was decoded.
			other := fresh.Events[rng.Intn(len(fresh.Events))]
			e.LocHint, e.EntHint = other.LocHint, other.EntHint
			if i%2 == 0 {
				e.Location, e.Entry = strings.Clone(e.Location), strings.Clone(e.Entry)
			}
		})
		for _, f := range []preprocess.Filter{
			{Threshold: 300},
			{Threshold: 300, Sliding: true},
			{Threshold: 30},
		} {
			want := decide(fresh.Events, f, zer)
			kept := 0
			for _, d := range want {
				if d.spatial {
					kept++
				}
			}
			if kept == 0 || kept == len(want) {
				t.Fatalf("seed %d, filter %+v: kept %d of %d — the property would prove nothing", seed, f, kept, len(want))
			}
			for name, events := range variants {
				before := raslog.HintMisses()
				got := decide(events, f, zer)
				if raslog.HintMisses() == before {
					t.Fatalf("seed %d: %s hints never reached the lookup", seed, name)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d, filter %+v, %s hints: event %d (%v) decided %+v, freshly decoded %+v",
							seed, f, name, i, events[i], got[i], want[i])
					}
				}
			}
		}
	}
}
