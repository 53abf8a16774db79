package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/raslog"
)

// Frame layout, shared by WAL records and snapshot files:
//
//	u32 LE  payload length
//	u32 LE  CRC-32C (Castagnoli) of the payload
//	bytes   payload
//
// A WAL payload is a batch of events in a compact varint encoding
// (below), back to back, or empty: an install mark (AppendMark). A
// snapshot payload is the snapshot JSON. The CRC turns both torn writes
// and bit rot into a detected stop instead of silently-wrong state.

const frameHeader = 8

// maxFrame bounds a frame payload so a garbage length prefix (torn
// header bytes) cannot drive a huge allocation.
const maxFrame = 256 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks the point where a segment's durable records end: a
// partial or checksum-failing frame, the signature of a crash mid-write.
var errTorn = errors.New("persist: torn or corrupt frame")

func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return append(append(dst, hdr[:]...), payload...)
}

// readFrame returns the next payload, io.EOF at a clean segment end, or
// errTorn when the remaining bytes do not form a whole valid frame.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTorn
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errTorn
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTorn
	}
	return payload, nil
}

// appendEvent encodes e in the WAL's binary form: varints (zigzag for
// the signed fields) plus length-prefixed strings. Unlike the text
// codec — which records whole seconds — this is lossless at millisecond
// resolution, so replayed events are byte-identical to ingested ones.
func appendEvent(b []byte, e raslog.Event) []byte {
	b = binary.AppendVarint(b, e.RecordID)
	b = binary.AppendVarint(b, e.Time)
	b = binary.AppendVarint(b, e.JobID)
	b = binary.AppendUvarint(b, uint64(e.Facility))
	b = binary.AppendUvarint(b, uint64(e.Severity))
	b = appendString(b, e.Type)
	b = appendString(b, e.Location)
	return appendString(b, e.Entry)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// eventDecoder decodes events through in, so a replayed event carries the
// vocabulary's strings and hints and a string seen before costs no
// allocation.
type eventDecoder struct {
	buf []byte
	in  *raslog.Interner
	err error
}

func (d *eventDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errors.New("persist: bad varint in event record")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *eventDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("persist: bad uvarint in event record")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// enum decodes a Facility or Severity value, which must be below n: a
// larger one would wrap in the int8 the event stores it in.
func (d *eventDecoder) enum(n int, what string) int8 {
	v := d.uvarint()
	if d.err == nil && v >= uint64(n) {
		d.err = fmt.Errorf("persist: %s %d out of range in event record", what, v)
	}
	if d.err != nil {
		return 0
	}
	return int8(v)
}

func (d *eventDecoder) str() (string, raslog.Sym) {
	n := d.uvarint()
	if d.err != nil {
		return "", 0
	}
	if n > uint64(len(d.buf)) {
		d.err = errors.New("persist: truncated string in event record")
		return "", 0
	}
	s, id := d.in.Intern(d.buf[:n])
	d.buf = d.buf[n:]
	return s, id
}

// event decodes one event from the front of the buffer. A frame payload
// may concatenate several encodings (AppendBatch's group commit), so the
// caller loops until the buffer is empty.
func (d *eventDecoder) event() (raslog.Event, error) {
	var e raslog.Event
	e.RecordID = d.varint()
	e.Time = d.varint()
	e.JobID = d.varint()
	e.Facility = raslog.Facility(d.enum(int(raslog.NumFacilities), "facility"))
	e.Severity = raslog.Severity(d.enum(int(raslog.NumSeverities), "severity"))
	e.Type, _ = d.str()
	e.Location, e.LocHint = d.str()
	e.Entry, e.EntHint = d.str()
	return e, d.err
}

func decodeEvent(b []byte) (raslog.Event, error) {
	d := eventDecoder{buf: b, in: raslog.NewInterner()}
	e, err := d.event()
	if err == nil && len(d.buf) != 0 {
		err = errors.New("persist: trailing bytes in event record")
	}
	return e, err
}

// Replay streams every durable WAL record with sequence >= from to fn,
// in order, and returns the sequence *after* the last durable record —
// the position StartAppend must resume from. A torn tail ends the final
// segment's records; a torn or missing range in front of a later segment
// is real corruption and fails loudly rather than replaying a stream
// with a hole in it. Install marks are skipped (ReplayMarks delivers
// them).
func (st *Store) Replay(from uint64, fn func(seq uint64, e raslog.Event) error) (uint64, error) {
	return st.ReplayMarks(from, fn, nil)
}

// ReplayMarks is Replay that also calls mark, in stream order, for every
// install mark at a sequence >= from: mark(seq) means a pass went live
// before the event at seq. Either call, made before StartAppend, also
// tells the store how many marks follow the last record, so the next
// segment restates them.
func (st *Store) ReplayMarks(from uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, error) {
	next, tail, err := st.walk(from, fn, mark)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	if !st.appending {
		st.nextSeq, st.marks = next, tail
	}
	st.mu.Unlock()
	return next, nil
}

// ErrWALGap reports that the oldest retained WAL segment starts past the
// sequence a read starts from: the records in between are gone.
var ErrWALGap = errors.New("persist: WAL gap")

// walk is the one reader of the segment chain, behind both ReplayMarks
// and Copy: it calls fn for every durable record with sequence >= from
// and mark (when non-nil) for every install mark at a sequence >= from,
// in stream order. Each stretch of the stream is read from the newest
// segment that holds it: a segment supersedes anything an older one
// holds from its first sequence on, marks included (it restates the
// marks there), so a segment whose successor starts at or below from is
// not read at all. It returns the sequence after the last record (from
// at least) and how many marks follow that record. An oldest segment
// starting past from fails with ErrWALGap; a segment that ends before
// its successor starts is corruption and fails loudly rather than
// delivering a stream with a hole in it. An error from fn or mark aborts
// the walk, wrapped, with the sequence where delivery stopped.
func (st *Store) walk(from uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, int, error) {
	segs, err := st.listRefs(walPrefix)
	if err != nil {
		return from, 0, err
	}
	next, tail := from, 0
	for i, seg := range segs {
		stop := uint64(math.MaxUint64)
		if i+1 < len(segs) {
			stop = segs[i+1].seq
		}
		if stop <= from {
			continue
		}
		if seg.seq > next {
			// Only the first segment read can start past next: every later
			// one starts where the check below left its predecessor.
			return next, 0, fmt.Errorf("%w: oldest segment %s starts at seq %d, need %d", ErrWALGap, seg.name, seg.seq, from)
		}
		end, marks, err := walkSegment(filepath.Join(st.dir, seg.name), seg.seq, next, stop, fn, mark)
		if err != nil {
			return end, marks, err
		}
		if end < stop && i+1 < len(segs) {
			return end, 0, fmt.Errorf("persist: WAL gap: segment %s ends at seq %d, next starts at %d", seg.name, end, stop)
		}
		next, tail = max(next, end), marks
	}
	return next, tail, nil
}

// walkSegment reads one segment whose first record is firstSeq (see
// walkFrames), naming the segment in its errors.
func walkSegment(path string, firstSeq, from, stop uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return from, 0, err
	}
	defer f.Close()
	next, tail, err := walkFrames(bufio.NewReaderSize(f, 1<<16), firstSeq, from, stop, fn, mark)
	if err != nil {
		return next, tail, fmt.Errorf("%s: %w", path, err)
	}
	return next, tail, nil
}

// walkFrames is the one frame walk, over a segment file or a transfer
// of one: it reads the frames of a stream whose first record is
// firstSeq, calling fn for records and mark (when non-nil) for install
// marks in [from, stop). A newer segment starting at stop supersedes the
// stream from there on, marks included (it restates the marks at stop).
// EOF or a torn frame ends the stream cleanly. It returns the sequence
// after the last record read (stop at most) and how many marks follow
// that record. An error from fn or mark aborts the walk as-is, with the
// sequence where delivery stopped.
func walkFrames(r *bufio.Reader, firstSeq, from, stop uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, int, error) {
	in := raslog.NewInterner()
	seq, tail := firstSeq, 0
	for seq < stop {
		payload, err := readFrame(r)
		if err == io.EOF || errors.Is(err, errTorn) {
			break // durable end of the stream
		}
		if err != nil {
			return seq, tail, err
		}
		if len(payload) == 0 {
			tail++
			if mark != nil && seq >= from {
				if err := mark(seq); err != nil {
					return seq, tail, err
				}
			}
			continue
		}
		tail = 0
		// A frame holds a batch's events back to back (AppendBatch); a
		// single-record frame is the degenerate batch, so pre-batch
		// segments decode identically.
		d := eventDecoder{buf: payload, in: in}
		for len(d.buf) > 0 && seq < stop {
			e, derr := d.event()
			if derr != nil {
				// A frame that passes its CRC but does not decode is not a torn
				// tail; it means the writer and reader disagree. Fail loudly.
				return seq, tail, fmt.Errorf("persist: record %d: %w", seq, derr)
			}
			if seq >= from {
				if err := fn(seq, e); err != nil {
					return seq, tail, err
				}
			}
			seq++
		}
	}
	return seq, tail, nil
}
