package preprocess_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bgsim"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// oracleApply is an independent two-pass reference implementation of the
// paper's filter (§3.2): temporal compression over the whole log, then
// spatial compression over the temporal survivors. The production batch
// and incremental filters are both checked byte-identical against it.
func oracleApply(l *raslog.Log, f preprocess.Filter) *raslog.Log {
	if f.Threshold <= 0 {
		return l.Clone()
	}
	thresholdMs := f.Threshold * 1000

	type tempKey struct {
		loc   string
		jobID int64
		entry string
	}
	temporal := raslog.NewLog(l.Name, 0)
	lastTemp := make(map[tempKey]int64)
	for _, e := range l.Events {
		k := tempKey{e.Location, e.JobID, e.Entry}
		if last, seen := lastTemp[k]; seen && e.Time-last <= thresholdMs {
			if f.Sliding {
				lastTemp[k] = e.Time
			}
			continue
		}
		lastTemp[k] = e.Time
		temporal.Append(e)
	}

	type spatKey struct {
		jobID int64
		entry string
	}
	type spatState struct {
		time int64
		loc  string
	}
	out := raslog.NewLog(l.Name, 0)
	lastSpat := make(map[spatKey]spatState)
	for _, e := range temporal.Events {
		k := spatKey{e.JobID, e.Entry}
		if st, seen := lastSpat[k]; seen && e.Time-st.time <= thresholdMs && st.loc != e.Location {
			if f.Sliding {
				lastSpat[k] = spatState{e.Time, st.loc}
			}
			continue
		}
		lastSpat[k] = spatState{e.Time, e.Location}
		out.Append(e)
	}
	return out
}

// incrementalApply feeds a sorted log through the streaming filter one
// event at a time.
func incrementalApply(l *raslog.Log, f preprocess.Filter) (*raslog.Log, preprocess.FilterStats) {
	inc := f.Incremental()
	out := raslog.NewLog(l.Name, 0)
	for _, e := range l.Events {
		if inc.Observe(e) {
			out.Append(e)
		}
	}
	return out, inc.Stats()
}

func encode(t *testing.T, l *raslog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := raslog.WriteLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEquivalence(t *testing.T, l *raslog.Log, f preprocess.Filter) {
	t.Helper()
	want := encode(t, oracleApply(l, f))
	batch, batchStats := f.Apply(l)
	if got := encode(t, batch); !bytes.Equal(got, want) {
		t.Errorf("filter %+v: batch output differs from two-pass oracle (%d vs %d bytes)",
			f, len(got), len(want))
	}
	incr, incrStats := incrementalApply(l, f)
	if got := encode(t, incr); !bytes.Equal(got, want) {
		t.Errorf("filter %+v: incremental output differs from two-pass oracle (%d vs %d bytes)",
			f, len(got), len(want))
	}
	if batchStats != incrStats {
		t.Errorf("filter %+v: stats diverge: batch %+v, incremental %+v", f, batchStats, incrStats)
	}
}

// TestIncrementalEquivalenceBgsim is the property test of the streaming
// filter: on sorted bgsim logs across seeds, the incremental and batch
// filters must produce byte-identical output (both pinned to an
// independent two-pass oracle).
func TestIncrementalEquivalenceBgsim(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := bgsim.SDSC(seed).Scaled(8, 0.05)
			g, err := bgsim.NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l, err := g.Generate()
			if err != nil {
				t.Fatal(err)
			}
			l.SortByTime()
			for _, f := range []preprocess.Filter{
				{Threshold: 0},
				{Threshold: 60},
				{Threshold: 300},
				{Threshold: 300, Sliding: true},
			} {
				checkEquivalence(t, l, f)
			}
		})
	}
}

// TestIncrementalEquivalenceRandom drives the same property on adversarial
// random logs: tiny key spaces and dense duplicate timestamps, where
// temporal and spatial interactions are most intricate.
func TestIncrementalEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := raslog.NewLog("rand", 0)
		timeMs := int64(0)
		for i := 0; i < 3000; i++ {
			timeMs += int64(rng.Intn(200_000)) // 0–200 s steps, many ties
			l.Append(raslog.Event{
				RecordID: int64(i),
				Time:     timeMs,
				Location: fmt.Sprintf("R%d", rng.Intn(6)),
				JobID:    int64(rng.Intn(4)),
				Entry:    fmt.Sprintf("e%d", rng.Intn(8)),
				Facility: raslog.Kernel,
				Severity: raslog.Info,
			})
		}
		for _, f := range []preprocess.Filter{
			{Threshold: 300},
			{Threshold: 300, Sliding: true},
			{Threshold: 1},
		} {
			checkEquivalence(t, l, f)
		}
	}
}

// TestIncrementalEquivalenceEmptyFields holds the stages to the oracle on
// a stream that opens with an empty Location and Entry and keeps
// repeating them: "" is the vocabulary's Sym 0, the value a zero hint
// holds, and must key like any other string.
func TestIncrementalEquivalenceEmptyFields(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := raslog.NewLog("empty", 0)
		l.Append(raslog.Event{Location: "", Entry: ""})
		l.Append(raslog.Event{RecordID: 1, Location: "R0", Entry: ""})
		l.Append(raslog.Event{RecordID: 2, Location: "", Entry: "e0"})
		timeMs := int64(0)
		for i := 3; i < 2000; i++ {
			timeMs += int64(rng.Intn(120_000))
			e := raslog.Event{RecordID: int64(i), Time: timeMs, JobID: int64(rng.Intn(2))}
			if rng.Intn(3) > 0 { // runs of one location or entry, as in real logs
				e.Location, e.Entry = l.Events[i-1].Location, l.Events[i-1].Entry
			} else {
				e.Location = []string{"", "R0", "R1"}[rng.Intn(3)]
				e.Entry = []string{"", "e0", "e1"}[rng.Intn(3)]
			}
			l.Append(e)
		}
		for _, f := range []preprocess.Filter{{Threshold: 300}, {Threshold: 300, Sliding: true}} {
			checkEquivalence(t, l, f)
		}
	}
}

// TestIncrementalBoundedState checks the eviction sweep: streaming an
// unbounded sequence of one-shot keys must not accumulate unbounded
// filter state.
func TestIncrementalBoundedState(t *testing.T) {
	inc := preprocess.Filter{Threshold: 300}.Incremental()
	timeMs := int64(0)
	for i := 0; i < 200_000; i++ {
		timeMs += 1000 // 1 s apart: each key stale 300 s later
		inc.Observe(raslog.Event{
			Time:     timeMs,
			Location: fmt.Sprintf("L%d", i), // never repeats
			JobID:    int64(i),
			Entry:    "once",
			Facility: raslog.Kernel,
			Severity: raslog.Info,
		})
	}
	// Live keys within one 300 s window: ~300 per stage. The sweep runs
	// every 8192 observations, so resident keys must stay well under
	// 2*(300 + 8192) regardless of the 200k distinct keys streamed.
	if got := inc.ResidentKeys(); got > 17_500 {
		t.Fatalf("resident keys = %d after 200k one-shot keys; eviction not bounding state", got)
	}
}
