// Package persist gives the streaming service durable state using
// nothing but the standard library: atomic snapshots of the trained
// model plus a length-prefixed, CRC-checked write-ahead log (WAL) of
// post-sequencer events (DESIGN.md §9).
//
// A state directory holds two kinds of files:
//
//	snap-<seq>-<gen>.snap  framed JSON snapshot taken at WAL position <seq>
//	wal-<seq>-<gen>.log    WAL segment whose first record has sequence <seq>
//
// <seq> is the zero-padded hex sequence number assigned by the stream
// sequencer; <gen> is a per-directory monotone counter that keeps names
// unique across restarts (a recovery may open a new segment at the same
// sequence the torn tail of the old one stopped at). Both are ordered so
// a plain lexical directory listing is also the logical order.
//
// Durability model: AppendBatch writes the events. It buffers one
// frame and returns a commit Ticket; a background syncer flushes the
// buffer and fsyncs once for every ticket that queued behind the
// previous fsync (commit.go), so concurrent batches share a flush and a
// ticket's Wait returning nil means its frames are on stable storage.
// Rotation, snapshots and Close flush and fsync inline. A snapshot is
// written atomically (temp file + fsync + rename + directory fsync)
// *after* syncing the WAL, so a snapshot at position S implies the WAL
// is durable through S and recovery = load newest valid snapshot +
// replay the WAL tail from S. A torn or corrupt frame marks where the
// durable records of the final segment end — exactly what a crash
// mid-write leaves behind.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/raslog"
)

// Options tunes a Store. The zero value is usable.
type Options struct {
	// RotateBytes starts a new WAL segment once the current one exceeds
	// this size. Zero means 8 MiB.
	RotateBytes int64
	// KeepSnapshots bounds how many snapshot files are retained: the
	// newest plus fallbacks in case the newest is unreadable. Zero
	// means 2.
	KeepSnapshots int
	// FollowerTTL bounds how long a registered follower's ack keeps WAL
	// segments from being pruned without a refresh (RetainFollower).
	// Zero means 10 minutes.
	FollowerTTL time.Duration
	// SyncMaxWait is an optional coalescing delay for the asynchronous
	// commit pipeline (commit.go): after being woken, the background
	// syncer lingers this long so more AppendBatch tickets can join the
	// round before the shared fsync. Zero syncs as soon as the syncer is
	// free — the pipeline still coalesces everything that arrives while
	// an fsync is in flight (self-clocking), so the knob only matters at
	// low concurrency where extra latency buys a deeper group.
	SyncMaxWait time.Duration
	// SyncExec, when set, runs this store's background fsyncs under a
	// shared concurrency bound (fleet mode: many tenant stores, one
	// disk). Nil runs them directly.
	SyncExec *SyncExecutor
}

func (o Options) withDefaults() Options {
	if o.RotateBytes <= 0 {
		o.RotateBytes = 8 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

// ErrClosed is returned by writes after Close.
var ErrClosed = errors.New("persist: store closed")

// Store is one state directory: the WAL appender plus the snapshot
// reader/writer. All methods are safe for concurrent use; the intended
// caller is the stream pipeline goroutine, which both appends and
// snapshots, next to HTTP handlers serving segments to followers.
type Store struct {
	dir string
	opt Options

	mu        sync.Mutex
	dead      bool // Abandon: every later call is a silent no-op
	closed    bool
	gen       int // monotone file-name disambiguator for this directory
	f         *os.File
	bw        *bufio.Writer
	segBytes  int64
	nextSeq   uint64
	marks     int // install marks at nextSeq in the log: a new segment restates them
	appending bool
	scratch   []byte // frame encoding buffer, reused across appends
	payload   []byte // event encoding buffer, reused across appends

	// Asynchronous commit pipeline (commit.go). pending is the round the
	// next background fsync will cover; syncing marks an fsync in flight
	// with mu released, and syncCond (on mu) is broadcast when it lands
	// so inline syncs can wait the flag out. The syncer goroutine starts
	// lazily at StartAppend and exits via syncStop.
	pending     *commitRound
	syncing     bool
	syncCond    *sync.Cond
	kick        chan struct{}
	syncStop    chan struct{}
	syncStopped bool
	syncerDone  chan struct{}

	// Retention guard (segments.go): registered follower acks plus pins
	// held by in-flight segment reads; pruneLocked keeps every segment
	// holding records at or above the guard's floor.
	followers map[string]followerAck
	pins      map[int]uint64
	pinID     int
}

// Open creates dir if needed and returns a store over it. Existing state
// is left untouched: call LoadSnapshot / Replay to read it, then
// StartAppend to position the WAL for new records.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	st := &Store{dir: dir, opt: opt.withDefaults()}
	st.syncCond = sync.NewCond(&st.mu)
	names, err := st.listNames()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, gen, ok := parseStateName(n); ok && gen > st.gen {
			st.gen = gen
		}
	}
	return st, nil
}

// Dir returns the state directory path.
func (st *Store) Dir() string { return st.dir }

// StartAppend positions the WAL so the next AppendBatch must start at
// sequence seq — call it once, after Replay, with the sequence Replay
// returned (Replay also counted the install marks at it, which the next
// segment restates). A fresh segment is created lazily on the first
// append, so a restart that never ingests anything leaves the directory
// untouched.
func (st *Store) StartAppend(seq uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return nil
	}
	if st.closed {
		return ErrClosed
	}
	if seq != st.nextSeq {
		st.marks = 0
	}
	st.nextSeq = seq
	st.appending = true
	st.startSyncerLocked()
	return nil
}

// AppendBatch writes events as one group-committed WAL record occupying
// sequences seq..seq+len(events)-1, and is the only call that writes
// events (AppendMark writes the empty install marks). The frame payload
// is the events' encodings back to back, so the whole batch becomes
// durable with one fsync. seq must be exactly the next sequence (the
// stream assigns them densely; a skip would silently corrupt replay
// positioning, so it is rejected loudly instead). The fsync itself is asynchronous (commit.go): AppendBatch
// buffers the frame, wakes the background syncer, and returns a Ticket
// that resolves when the covering flush + fsync lands, so concurrent
// batches share one disk flush instead of serializing behind each
// other's. Nothing flushes the buffer at append time: a caller that
// needs the frame durable waits on the ticket.
//
// A one-event batch is byte-identical to the pre-batch single-record
// frame (testdata/prebatch), and Replay decodes either shape, so old and
// new segments interleave freely in one directory. Returns the bytes
// appended.
func (st *Store) AppendBatch(seq uint64, events []raslog.Event) (int, Ticket, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		// The dead store is a silent no-op, but the events were NOT made
		// durable: the ticket must fail so no caller acks them.
		return 0, FailedTicket(ErrAbandoned), nil
	}
	if err := st.appendableLocked(seq); err != nil {
		return 0, Ticket{}, err
	}
	if len(events) == 0 {
		return 0, Ticket{}, nil
	}
	st.payload = st.payload[:0]
	for i := range events {
		st.payload = appendEvent(st.payload, events[i])
	}
	n, err := st.writeFrameLocked(seq, st.payload)
	if err != nil {
		return n, FailedTicket(err), err
	}
	st.nextSeq += uint64(len(events))
	st.marks = 0
	return n, st.enqueueCommitLocked(), nil
}

// AppendMark writes an install mark at sequence seq, the next one: an
// empty frame that consumes no sequence number and records that a
// training pass went live before the event at seq (the stream's replay
// and followers install their own pass there). AppendBatch never writes
// an empty frame, so a mark cannot be mistaken for a batch, and readers
// that predate marks decode one as no events. The mark needs no fsync of
// its own: the WAL is one sequential file, so the fsync of any later
// event covers it. Returns the bytes appended.
func (st *Store) AppendMark(seq uint64) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return 0, nil
	}
	if err := st.appendableLocked(seq); err != nil {
		return 0, err
	}
	n, err := st.writeFrameLocked(seq, nil)
	if err == nil {
		st.marks++
	}
	return n, err
}

// appendableLocked checks that the next frame may be appended at seq.
func (st *Store) appendableLocked(seq uint64) error {
	if st.closed {
		return ErrClosed
	}
	if !st.appending {
		return errors.New("persist: append before StartAppend")
	}
	if seq != st.nextSeq {
		return fmt.Errorf("persist: out-of-order append: seq %d, want %d", seq, st.nextSeq)
	}
	return nil
}

// writeFrameLocked buffers one frame whose first record (if any) is seq,
// rotating to a new segment first when the current one is full (or none
// is open since a restart). A newer segment supersedes the older ones
// from its first sequence on, marks included, so it starts by restating
// the install marks already written at seq: a reader that starts at seq
// in the newest segment sees them all.
func (st *Store) writeFrameLocked(seq uint64, payload []byte) (int, error) {
	n := 0
	if st.f == nil || st.segBytes >= st.opt.RotateBytes {
		if err := st.rotateLocked(seq); err != nil {
			return 0, err
		}
		for i := 0; i < st.marks; i++ {
			m, err := st.bufferFrameLocked(nil)
			if n += m; err != nil {
				return n, err
			}
		}
	}
	m, err := st.bufferFrameLocked(payload)
	return n + m, err
}

// bufferFrameLocked buffers one frame in the open segment.
func (st *Store) bufferFrameLocked(payload []byte) (int, error) {
	st.scratch = appendFrame(st.scratch[:0], payload)
	n, err := st.bw.Write(st.scratch)
	st.segBytes += int64(n)
	return n, err
}

// rotateLocked syncs and closes the current segment (if any) and opens a
// new one whose first record will carry firstSeq. The old segment is
// fully durable before the new one exists, which is what confines torn
// tails to the final segment.
func (st *Store) rotateLocked(firstSeq uint64) error {
	if st.f != nil {
		if err := st.syncLocked(); err != nil {
			return err
		}
		if err := st.f.Close(); err != nil {
			return err
		}
		st.f, st.bw = nil, nil
	}
	st.gen++
	path := filepath.Join(st.dir, walName(firstSeq, st.gen))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	st.f = f
	st.bw = bufio.NewWriterSize(f, 1<<16)
	st.segBytes = 0
	return syncDir(st.dir)
}

// syncLocked is the inline (synchronous) flush + fsync used by
// rotation, snapshots and Close. It first waits out any fsync the
// background syncer has in flight (the file handle must not be rotated
// or closed under it), then completes the pending commit round — its
// tickets are covered by this fsync exactly as they would have been by
// the syncer's.
func (st *Store) syncLocked() error {
	st.waitSyncIdleLocked()
	r := st.pending
	st.pending = nil
	var err error
	if st.f != nil {
		if err = st.bw.Flush(); err == nil {
			err = st.f.Sync()
		}
	}
	if r != nil {
		r.err = err
		close(r.done)
	}
	return err
}

// Abandon simulates abrupt process death for crash tests: the write
// buffer is discarded, the segment handle is closed without flushing,
// and every later call on the store is a silent no-op. The directory is
// left exactly as a real kill at this instant would leave it. Tickets
// still pending fail with ErrAbandoned — their fsync never happened, so
// their waiters must not acknowledge; a round whose fsync was already
// in flight resolves with that fsync's real outcome (just as a real
// kill can land an instant after the data hit the disk).
func (st *Store) Abandon() {
	st.mu.Lock()
	st.dead = true
	if st.f != nil {
		_ = st.f.Close() // deliberately without flushing st.bw
		st.f, st.bw = nil, nil
	}
	st.failPendingLocked(ErrAbandoned)
	st.stopSyncerLocked()
	done := st.syncerDone
	st.mu.Unlock()
	if done != nil {
		<-done // syncer resolves any in-flight round before exiting
	}
}

// Close makes the WAL durable and releases the store. The inline sync
// completes any pending commit round, so every outstanding ticket
// resolves (successfully) before the segment handle goes away. Safe to
// call more than once.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.dead || st.closed {
		st.closed = true
		st.stopSyncerLocked()
		done := st.syncerDone
		st.mu.Unlock()
		if done != nil {
			<-done
		}
		return nil
	}
	st.closed = true
	var err error
	if st.f != nil {
		err = st.syncLocked()
		if cerr := st.f.Close(); err == nil {
			err = cerr
		}
		st.f, st.bw = nil, nil
	}
	st.stopSyncerLocked()
	done := st.syncerDone
	st.mu.Unlock()
	if done != nil {
		<-done
	}
	return err
}

// ---------------------------------------------------------------------------
// Directory listing and naming.
// ---------------------------------------------------------------------------

const (
	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
)

func walName(seq uint64, gen int) string {
	return fmt.Sprintf("%s%016x-%08x%s", walPrefix, seq, gen, walSuffix)
}

func snapName(seq uint64, gen int) string {
	return fmt.Sprintf("%s%016x-%08x%s", snapPrefix, seq, gen, snapSuffix)
}

// parseStateName decodes either file-name shape, returning ok=false for
// foreign files (which the store ignores entirely).
func parseStateName(name string) (seq uint64, gen int, ok bool) {
	var body string
	switch {
	case strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix):
		body = strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix)
	case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
		body = strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	default:
		return 0, 0, false
	}
	var g int
	if n, err := fmt.Sscanf(body, "%16x-%8x", &seq, &g); n != 2 || err != nil {
		return 0, 0, false
	}
	return seq, g, true
}

func (st *Store) listNames() ([]string, error) {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	return names, nil
}

// fileRef is one parsed state file, ordered by (seq, gen).
type fileRef struct {
	name string
	seq  uint64
	gen  int
}

func (st *Store) listRefs(prefix string) ([]fileRef, error) {
	names, err := st.listNames()
	if err != nil {
		return nil, err
	}
	var out []fileRef
	for _, n := range names {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		if seq, gen, ok := parseStateName(n); ok {
			out = append(out, fileRef{name: n, seq: seq, gen: gen})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].seq != out[j].seq {
			return out[i].seq < out[j].seq
		}
		return out[i].gen < out[j].gen
	})
	return out, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. Best-effort on platforms where directories reject fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
