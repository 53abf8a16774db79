package persist

// Streaming snapshot encoder. Most of a snapshot is its history window
// and, on a fleet tenant, the temporal filter table, so WriteSnapshot
// never holds the whole payload: one json.Marshal encodes every other
// field, and those two arrays follow element by element through
// hand-written appenders into a buffer that is checksummed and written
// out as it fills. The result is byte for byte appendFrame(nil,
// json.Marshal(s)): the arrays are Snapshot's last fields, and the
// appenders emit what encoding/json emits for their types
// (TestStreamedSnapshotEqualsMarshal, FuzzSnapshotJSONString).

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"unicode/utf8"

	"repro/internal/preprocess"
)

// snapFlushAt is the buffered payload size at which a frameWriter
// writes out.
const snapFlushAt = 64 << 10

var errSnapshotTooLarge = fmt.Errorf("persist: snapshot payload exceeds %d bytes", maxFrame)

// writeSnapshotFile streams s's frame into a new file at path and syncs
// it, returning the frame's size. On failure it removes the file. A
// payload past maxFrame fails: readFrame would reject it as torn.
func writeSnapshotFile(path string, s *Snapshot) (n int64, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	var hdr [frameHeader]byte // a placeholder until the payload is known
	if _, err := f.Write(hdr[:]); err != nil {
		return 0, err
	}
	w := frameWriter{f: f, buf: make([]byte, 0, snapFlushAt+4<<10)}
	if err := w.snapshot(s); err != nil {
		return 0, err
	}
	if w.flush(); w.err != nil {
		return 0, w.err
	}
	hdr = frameHead(w.n, w.crc)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return int64(frameHeader + w.n), nil
}

// frameWriter streams a frame's payload into f, keeping its length and
// running CRC-32C for the header. The first error sticks.
type frameWriter struct {
	f   *os.File
	buf []byte // payload not yet written
	n   int    // payload bytes written
	crc uint32
	err error
}

// emit checksums p and writes it out.
func (w *frameWriter) emit(p []byte) {
	if w.err != nil {
		return
	}
	if w.n += len(p); w.n > maxFrame {
		w.err = errSnapshotTooLarge
		return
	}
	w.crc = crc32.Update(w.crc, crcTable, p)
	_, w.err = w.f.Write(p)
}

func (w *frameWriter) flush() {
	w.emit(w.buf)
	w.buf = w.buf[:0]
}

// snapshot writes s's JSON, byte for byte what json.Marshal(s) returns.
func (w *frameWriter) snapshot(s *Snapshot) error {
	head := *s
	head.Temporal, head.History = nil, nil
	b, err := json.Marshal(&head)
	if err != nil {
		return fmt.Errorf("persist: snapshot encode: %w", err)
	}
	w.emit(b[:len(b)-1]) // leave the object open; Seq is always there, so a comma may follow
	streamArray(w, "temporal", s.Temporal, appendTemporalEntry)
	streamArray(w, "history", s.History, appendTaggedEvent)
	w.buf = append(w.buf, '}')
	return nil
}

// streamArray writes xs as the object member key, as json.Marshal does
// for an omitempty slice field: nothing when xs is empty.
func streamArray[T any](w *frameWriter, key string, xs []T, appendOne func([]byte, *T) []byte) {
	if len(xs) == 0 {
		return
	}
	w.buf = append(append(append(w.buf, `,"`...), key...), `":[`...)
	for i := range xs {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.buf = appendOne(w.buf, &xs[i])
		if len(w.buf) >= snapFlushAt {
			if w.flush(); w.err != nil {
				return
			}
		}
	}
	w.buf = append(w.buf, ']')
}

// appendTemporalEntry appends json.Marshal(*e).
func appendTemporalEntry(b []byte, e *preprocess.TemporalEntry) []byte {
	b = append(b, `{"loc":`...)
	b = appendJSONString(b, e.Location)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, e.JobID, 10)
	b = append(b, `,"entry":`...)
	b = appendJSONString(b, e.Entry)
	b = append(b, `,"last_ms":`...)
	b = strconv.AppendInt(b, e.LastMs, 10)
	return append(b, '}')
}

// appendTaggedEvent appends json.Marshal(*e): the embedded Event's
// fields by their Go names (the hints are untagged "-"), then Class and
// Fatal.
func appendTaggedEvent(b []byte, e *preprocess.TaggedEvent) []byte {
	b = append(b, `{"RecordID":`...)
	b = strconv.AppendInt(b, e.RecordID, 10)
	b = append(b, `,"Type":`...)
	b = appendJSONString(b, e.Type)
	b = append(b, `,"Time":`...)
	b = strconv.AppendInt(b, e.Time, 10)
	b = append(b, `,"JobID":`...)
	b = strconv.AppendInt(b, e.JobID, 10)
	b = append(b, `,"Location":`...)
	b = appendJSONString(b, e.Location)
	b = append(b, `,"Entry":`...)
	b = appendJSONString(b, e.Entry)
	b = append(b, `,"Facility":`...)
	b = strconv.AppendInt(b, int64(e.Facility), 10)
	b = append(b, `,"Severity":`...)
	b = strconv.AppendInt(b, int64(e.Severity), 10)
	b = append(b, `,"Class":`...)
	b = strconv.AppendInt(b, int64(e.Class), 10)
	b = append(b, `,"Fatal":`...)
	b = strconv.AppendBool(b, e.Fatal)
	return append(b, '}')
}

// appendJSONString appends s as encoding/json encodes a string. Plain
// ASCII that needs no escape — every Location, Entry and Type the
// simulator and the catalog produce — is copied inline; anything else
// (quotes, backslashes, the HTML characters <>&, control bytes,
// non-ASCII or invalid UTF-8) goes through json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
