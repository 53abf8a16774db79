package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/preprocess"
)

// oddStrings are strings encoding/json escapes or rewrites, which the
// appenders must hand to it: quotes, backslashes, the HTML characters,
// control bytes, U+2028/U+2029, non-ASCII and invalid UTF-8.
var oddStrings = []string{
	`say "hi"`, `C:\path`, "a<b", "a>b", "AT&T", "<a href=x>&amp;</a>",
	"nul\x00", "us\x1f", "del\x7f", "tab\tnl\n", "line\u2028sep\u2029",
	"unité … é", "bad \xff\xfe utf8", "\xed\xa0\x80",
}

// fullSnapshot sets every Snapshot field, with enough history to flush
// the write buffer several times.
func fullSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s := &Snapshot{
		Seq: 9001, Marks: 2,
		StreamStartMs: 1_000_000_000_000, WatermarkMs: 1_000_000_500_000,
		NextRetrainMs: 1_000_000_900_000, LastFatalMs: 1_000_000_400_000,
		Counters: Counters{Sequenced: 9001, LateDropped: 3, Overflow: 1, AfterTemporal: 700,
			Processed: 650, Fatals: 40, Warnings: 12},
		Rules: []Rule{
			{Kind: 0, Body: []int{3, 17}, Target: 204, Confidence: 0.81, Support: 0.02},
			{Kind: 2, Dist: &Dist{Name: "weibull", Params: []float64{187.3, 0.82}}, ElapsedSec: 900},
		},
		Spatial:   []preprocess.SpatialEntry{{JobID: 7, Entry: "ddr <error>", Location: "R01-M0", LastMs: 5}},
		Predictor: &predictor.State{Recent: []predictor.RecentEvent{{TimeMs: 4, Class: 2, Fatal: true}}, LastFatalMs: 9, LastWarnMs: [3]int64{1, 2, 3}},
		Warnings:  []predictor.Warning{{Time: 10, Deadline: 20, Source: 1, RuleID: "a&b", Target: 3}},
		Retrains:  json.RawMessage(`[{"at_ms":1,"rules":4}]`),
		Incr:      json.RawMessage(`{"version":1,"x":[1,2]}`),
	}
	for i := 0; i < 300; i++ {
		s.Temporal = append(s.Temporal, preprocess.TemporalEntry{
			Location: "R0" + string(rune('0'+i%10)) + "-M1-N2", JobID: int64(i - 5),
			Entry: oddStrings[i%len(oddStrings)], LastMs: int64(i) * 1000,
		})
	}
	for i := 0; i < 3000; i++ {
		e := preprocess.TaggedEvent{Event: testEvent(i), Class: i % 97, Fatal: i%3 == 0}
		if i%5 == 0 {
			e.Entry = oddStrings[i%len(oddStrings)]
		}
		e.Type = "RAS"
		e.Stamp()
		s.History = append(s.History, e)
	}
	// A field added to Snapshot, TaggedEvent or TemporalEntry must be set
	// here, where a streamed encoding that leaves it out shows.
	for _, v := range []reflect.Value{reflect.ValueOf(*s), reflect.ValueOf(s.History[3]),
		reflect.ValueOf(s.History[3].Event), reflect.ValueOf(s.Temporal[7])} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("fullSnapshot leaves %s.%s zero", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	return s
}

// TestStreamedSnapshotEqualsMarshal: the streamed file is byte for byte
// appendFrame(json.Marshal(s)), for a snapshot with every field set and
// for one with each omitempty field empty in turn and all at once.
func TestStreamedSnapshotEqualsMarshal(t *testing.T) {
	full := fullSnapshot(t)
	cases := map[string]*Snapshot{"full": full, "bare": {Seq: 3}}
	typ := reflect.TypeOf(*full)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); strings.Contains(f.Tag.Get("json"), "omitempty") {
			c := *full
			reflect.ValueOf(&c).Elem().Field(i).SetZero()
			cases["no "+f.Name] = &c
		}
	}
	for name, s := range cases {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		payload, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want := appendFrame(nil, payload)
		n, err := st.WriteSnapshot(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(st.dir, snapName(s.Seq, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(got)) || !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: wrote %d bytes (reported %d), json.Marshal frames %d; first difference at byte %d:\n got %.80q\nwant %.80q",
				name, len(got), n, len(want), i, got[min(i, len(got)):], want[min(i, len(want)):])
		}
	}
}

// FuzzSnapshotJSONString: the inline string appender emits exactly what
// encoding/json does, for any bytes.
func FuzzSnapshotJSONString(f *testing.F) {
	for _, s := range append([]string{"", "R00-M0-N4-C:J12-U01", "ddr error"}, oddStrings...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("appendJSONString(%q) = %q, want %q", s, got[1:], want)
		}
	})
}

// FuzzLoadSnapshot puts arbitrary bytes in the newest snapshot file next
// to a valid older one: LoadSnapshot never panics or fails, and returns
// what the newest file decodes to when it does decode, else the older.
func FuzzLoadSnapshot(f *testing.F) {
	older := &Snapshot{Seq: 10, WatermarkMs: 111, History: []preprocess.TaggedEvent{{Event: testEvent(1), Class: 4}}}
	olderPayload, err := json.Marshal(older)
	if err != nil {
		f.Fatal(err)
	}
	valid := appendFrame(nil, []byte(`{"seq":20,"watermark_ms":222,"temporal":[{"loc":"R1","job":2,"entry":"e","last_ms":3}]}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0))
	f.Add(appendFrame(nil, []byte(`{"seq":"twenty"}`)))
	f.Add(appendFrame(nil, []byte(`not json`)))
	f.Add(appendFrame(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		oldPath := filepath.Join(dir, snapName(10, 1))
		newPath := filepath.Join(dir, snapName(20, 2))
		if err := os.WriteFile(oldPath, appendFrame(nil, olderPayload), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got, err := st.LoadSnapshot()
		if err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		want, err := readSnapshotFile(newPath)
		if err != nil {
			if want, err = readSnapshotFile(oldPath); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("LoadSnapshot = %+v, want %+v", got, want)
		}
	})
}

// TestFrameWriterRefusesPastMaxFrame: a payload that outgrows maxFrame
// fails the write before its bytes reach the file, where readFrame would
// take the published snapshot for torn.
func TestFrameWriterRefusesPastMaxFrame(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "frame"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := frameWriter{f: f, n: maxFrame - 3}
	w.emit([]byte("abc"))
	if w.err != nil {
		t.Fatalf("a payload of exactly maxFrame: %v", w.err)
	}
	w.emit([]byte("d"))
	if w.err != errSnapshotTooLarge {
		t.Fatalf("a payload past maxFrame: err %v, want errSnapshotTooLarge", w.err)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != 3 {
		t.Fatalf("file holds %v bytes (%v), want only the 3 within the limit", fi.Size(), err)
	}
}
