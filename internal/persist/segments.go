package persist

// Read-side segment API: what leader/follower replication ships over the
// wire (DESIGN.md §14). A leader serves its WAL segments to followers
// frame by frame; a follower decodes them, appends the events to its own
// WAL and replays them through the live stage logic. Everything here
// reads the same frame format the appender writes, so the replicated
// byte stream is the durable byte stream, install marks included —
// there is no second encoding to drift.
//
// Two guards keep pruning honest while segments are being read:
//
//   - Follower acks: RetainFollower records how far each registered
//     follower has replicated; pruneLocked never removes a segment a
//     live follower still needs. A slow follower therefore degrades to
//     bounded retention growth on the leader, not to a fatal WAL gap on
//     the follower. Registrations expire after Options.FollowerTTL so a
//     follower that died without deregistering cannot pin the WAL
//     forever.
//   - Read pins: CopySegment pins the segment it is streaming for the
//     duration of the read, so a snapshot-triggered prune racing an
//     in-flight pull cannot unlink the file mid-transfer and the
//     follower's immediate retry still finds the chain contiguous.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/raslog"
)

// SegmentInfo describes one WAL segment for the read-side API.
type SegmentInfo struct {
	// Name is the segment's file name (wal-<seq>-<gen>.log); the unit a
	// follower requests.
	Name string `json:"name"`
	// FirstSeq is the sequence of the segment's first record.
	FirstSeq uint64 `json:"first_seq"`
	// Size is the segment's current byte size. For the actively-appended
	// segment this moves between calls.
	Size int64 `json:"size"`
}

// ErrNoSegment is returned by segment reads for a name the directory
// does not hold (pruned, or never existed).
var ErrNoSegment = errors.New("persist: no such WAL segment")

// Segments lists the WAL segments in (seq, gen) order along with the
// next append sequence — the durable stream's exclusive upper bound as
// far as this store has flushed it. The write buffer is flushed first so
// the listing's sizes (and a follower's subsequent read) cover every
// record the store has acknowledged.
func (st *Store) Segments() ([]SegmentInfo, uint64, error) {
	st.mu.Lock()
	if st.bw != nil && !st.dead {
		if err := st.bw.Flush(); err != nil {
			st.mu.Unlock()
			return nil, 0, err
		}
	}
	next := st.nextSeq
	st.mu.Unlock()

	refs, err := st.listRefs(walPrefix)
	if err != nil {
		return nil, 0, err
	}
	out := make([]SegmentInfo, 0, len(refs))
	for _, ref := range refs {
		fi, err := os.Stat(filepath.Join(st.dir, ref.name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between the listing and the stat
			}
			return nil, 0, err
		}
		out = append(out, SegmentInfo{Name: ref.name, FirstSeq: ref.seq, Size: fi.Size()})
	}
	return out, next, nil
}

// NextSeq returns the sequence the next AppendBatch must start at.
func (st *Store) NextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextSeq
}

// readSegment streams the named segment's durable records with sequence
// >= from to fn, and its install marks at sequences >= from to mark, in
// order, returning the sequence after the last record delivered. A torn
// or truncated tail — the live appender's unflushed frontier, or a crash
// scar — ends the read cleanly; a later call simply reads further once
// more bytes are durable. from below the segment's first record is an
// error (the caller asked for history this segment does not hold).
func (st *Store) readSegment(name string, from uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, error) {
	firstSeq, _, ok := parseStateName(name)
	if !ok || !isWALName(name) {
		return 0, fmt.Errorf("%w: %q", ErrNoSegment, name)
	}
	if from < firstSeq {
		return 0, fmt.Errorf("persist: segment %s starts at seq %d, asked from %d", name, firstSeq, from)
	}
	release := st.pinSegment(firstSeq)
	defer release()
	f, err := os.Open(filepath.Join(st.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %q", ErrNoSegment, name)
		}
		return 0, err
	}
	defer f.Close()
	next, _, err := walkFrames(bufio.NewReaderSize(f, 1<<16), firstSeq, from, math.MaxUint64, fn, mark)
	return next, err
}

// CopySegment re-frames the named segment's durable records with
// sequence >= from onto w in the WAL's own frame format, stopping after
// roughly maxBytes of payload (0 means unbounded) or at the segment's
// durable end, whichever comes first. Records are regrouped — a frame
// boundary on the wire need not match the on-disk group commit — but the
// event encodings are byte-identical, and each install mark at a
// sequence >= from ships as an empty frame at its place between them, so
// the receiver's WAL appends reproduce the same stream. Returns the bytes
// written and the sequence after the last record shipped. The segment is
// pinned against pruning for the duration of the copy.
func (st *Store) CopySegment(w io.Writer, name string, from uint64, maxBytes int64) (written int64, next uint64, err error) {
	const (
		groupEvents = 512
		groupBytes  = 256 << 10
	)
	var payload, frame []byte
	var inGroup int
	write := func(payload []byte) error {
		frame = appendFrame(frame[:0], payload)
		n, werr := w.Write(frame)
		written += int64(n)
		return werr
	}
	flush := func() error {
		if inGroup == 0 {
			return nil
		}
		werr := write(payload)
		payload, inGroup = payload[:0], 0
		return werr
	}
	next, err = st.readSegment(name, from, func(seq uint64, e raslog.Event) error {
		// The first event always ships, so marks alone cannot use up the
		// budget of a request and stall its resume at from.
		if maxBytes > 0 && written >= maxBytes && seq > from {
			return errCopyFull
		}
		payload = appendEvent(payload, e)
		inGroup++
		if inGroup >= groupEvents || len(payload) >= groupBytes {
			return flush()
		}
		return nil
	}, func(uint64) error {
		if err := flush(); err != nil {
			return err
		}
		return write(nil)
	})
	if err == errCopyFull {
		err = nil
	}
	if err != nil {
		return written, next, err
	}
	return written, next, flush()
}

// errCopyFull stops a CopySegment scan at its byte budget; the events
// already grouped are flushed and the next request resumes at `next`.
var errCopyFull = errors.New("persist: copy budget reached")

// DecodeFrames reads WAL frames from r — the format CopySegment writes
// and the appender persists — invoking fn per event with sequence
// numbers assigned densely from `from`, and mark (when non-nil) per
// install mark with the sequence of the event after it, up to stop: the
// first sequence a newer segment supersedes (which restates the marks
// there). A torn or truncated tail (a transfer cut off by the sender's
// death) ends the stream cleanly, like a torn segment tail on disk: the
// return is the sequence after the last whole record (stop at most),
// which is exactly where the receiver retries. Errors from fn or mark
// abort and surface as-is.
func DecodeFrames(r io.Reader, from, stop uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	next, _, err := walkFrames(br, from, from, stop, fn, mark)
	return next, err
}

func isWALName(name string) bool {
	return len(name) > len(walPrefix)+len(walSuffix) &&
		name[:len(walPrefix)] == walPrefix &&
		name[len(name)-len(walSuffix):] == walSuffix
}

// ---------------------------------------------------------------------------
// Retention guard: follower acks + read pins.
// ---------------------------------------------------------------------------

// followerAck is one registered follower's replication progress.
type followerAck struct {
	acked uint64
	seen  time.Time
}

// RetainFollower records that follower id has durably replicated every
// record below acked: pruning keeps any segment holding records >= the
// minimum acked position across live followers. Registration is
// refreshed by every call and expires after Options.FollowerTTL, so a
// follower that vanishes stops pinning retention after one TTL. The
// guard is in-memory: a leader restart forgets its followers until their
// next poll re-registers them (pruning only runs at snapshot writes, so
// the window is narrow; see DESIGN.md §14).
func (st *Store) RetainFollower(id string, acked uint64) {
	if id == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.followers == nil {
		st.followers = make(map[string]followerAck)
	}
	st.followers[id] = followerAck{acked: acked, seen: time.Now()}
}

// Followers returns the registered, unexpired follower acks.
func (st *Store) Followers() map[string]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	ttl := st.followerTTL()
	out := make(map[string]uint64, len(st.followers))
	for id, f := range st.followers {
		if time.Since(f.seen) <= ttl {
			out[id] = f.acked
		}
	}
	return out
}

func (st *Store) followerTTL() time.Duration {
	if st.opt.FollowerTTL > 0 {
		return st.opt.FollowerTTL
	}
	return 10 * time.Minute
}

// pinSegment marks a segment (by its first sequence) as being read, so
// pruning keeps it and everything after it until release.
func (st *Store) pinSegment(firstSeq uint64) (release func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pins == nil {
		st.pins = make(map[int]uint64)
	}
	st.pinID++
	id := st.pinID
	st.pins[id] = firstSeq
	return func() {
		st.mu.Lock()
		delete(st.pins, id)
		st.mu.Unlock()
	}
}

// retainFloorLocked is the lowest sequence pruning must keep reachable:
// the snapshot cut, lowered by any live follower's ack and any in-flight
// segment read. Caller holds st.mu.
func (st *Store) retainFloorLocked(snapSeq uint64) uint64 {
	floor := snapSeq
	ttl := st.followerTTL()
	now := time.Now()
	for id, f := range st.followers {
		if now.Sub(f.seen) > ttl {
			delete(st.followers, id)
			continue
		}
		if f.acked < floor {
			floor = f.acked
		}
	}
	for _, seq := range st.pins {
		if seq < floor {
			floor = seq
		}
	}
	return floor
}
