package persist

// Read side of replication (DESIGN.md §14): what a leader ships to its
// followers. Copy serves the WAL chain from a sequence through the same
// walk Replay uses, so the shipped stream is the stream Replay rebuilds,
// and in the frame format the appender writes, so the replicated bytes
// are the durable bytes, install marks included: there is no second
// encoding to drift. A follower decodes them with DecodeFrames, appends
// the events to its own WAL and applies them through the live stage
// logic.
//
// Two guards keep pruning honest while the chain is being read:
//
//   - Follower acks: RetainFollower records how far each registered
//     follower has replicated; pruneLocked never removes a segment a
//     live follower still needs. A slow follower therefore degrades to
//     bounded retention growth on the leader, not to a fatal WAL gap on
//     the follower. Registrations expire after followerTTL so a follower
//     that died without deregistering cannot pin the WAL forever.
//   - Read pins: Copy pins its start for the duration of the read, so a
//     snapshot-triggered prune racing an in-flight pull cannot unlink
//     the segment it reads, or any later one, mid-transfer.

import (
	"bufio"
	"errors"
	"io"
	"math"
	"time"

	"repro/internal/raslog"
)

// Copy re-frames the WAL's durable records with sequence >= from onto w
// in the WAL's own frame format, stopping after roughly maxBytes of
// payload (0 means unbounded) or at the store's flushed end, whichever
// comes first: what it ships, resumed at each returned next, is what
// ReplayMarks(from) delivers. Records are regrouped — a frame boundary
// on the wire need not match the on-disk group commit — but the event
// encodings are byte-identical, and each install mark at a sequence >=
// from ships as an empty frame at its place between them, so the
// receiver's WAL appends reproduce the same stream. The write buffer is
// flushed first, and the flushed end (the sequence the next append
// takes) read under the same lock; no record at or past it ships. The
// store must have been positioned by Replay or StartAppend. Returns the
// sequence after the last record shipped and the flushed end. The chain
// from `from` on is pinned against pruning for the duration of the
// copy; a from below the oldest retained segment fails with ErrWALGap.
func (st *Store) Copy(w io.Writer, from uint64, maxBytes int64) (next, end uint64, err error) {
	const (
		groupEvents = 512
		groupBytes  = 256 << 10
	)
	release := st.pin(from)
	defer release()
	st.mu.Lock()
	if st.bw != nil && !st.dead {
		err = st.bw.Flush()
	}
	end, tail := st.nextSeq, st.marks
	st.mu.Unlock()
	if err != nil {
		return from, end, err
	}
	var payload, frame []byte
	var written int64
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
	if from == end {
		// A caught-up reader, which an idle leader answers every poll: the
		// walk would decode the whole covering segment to ship only the
		// marks ending the log, which the store already counts.
		for ; tail > 0 && err == nil; tail-- {
			err = write(nil)
		}
		return from, end, err
	}
	next, _, err = st.walk(from, func(seq uint64, e raslog.Event) error {
		// The first event always ships, so marks alone cannot use up the
		// budget of a request and stall its resume at from.
		if seq >= end || maxBytes > 0 && written >= maxBytes && seq > from {
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
	if errors.Is(err, errCopyFull) {
		err = nil
	}
	if err != nil {
		return next, end, err
	}
	return next, end, flush()
}

// errCopyFull stops a Copy walk at its byte budget or the flushed end;
// the events already grouped are flushed and the next request resumes at
// `next`.
var errCopyFull = errors.New("persist: copy budget reached")

// DecodeFrames reads WAL frames from r — the format Copy writes and the
// appender persists — invoking fn per event with sequence numbers
// assigned densely from `from`, and mark (when non-nil) per install mark
// with the sequence of the event after it. A torn or truncated tail (a
// transfer cut off by the sender's death) ends the stream cleanly, like
// a torn segment tail on disk: the return is the sequence after the last
// whole record, which is exactly where the receiver retries. Errors from
// fn or mark abort and surface as-is.
func DecodeFrames(r io.Reader, from uint64, fn func(seq uint64, e raslog.Event) error, mark func(seq uint64) error) (uint64, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	next, _, err := walkFrames(br, from, from, math.MaxUint64, fn, mark)
	return next, err
}

// ---------------------------------------------------------------------------
// Retention guard: follower acks + read pins.
// ---------------------------------------------------------------------------

// followerTTL is how long a registered follower's ack keeps WAL segments
// from being pruned without a refresh.
const followerTTL = 10 * time.Minute

// followerAck is one registered follower's replication progress.
type followerAck struct {
	acked uint64
	seen  time.Time
}

// RetainFollower records that follower id has durably replicated every
// record below acked: pruning keeps any segment holding records >= the
// minimum acked position across live followers. Registration is
// refreshed by every call and expires after followerTTL, so a
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

// pin marks the chain from seq on as being read, so pruning keeps the
// segment holding seq and everything after it until release.
func (st *Store) pin(seq uint64) (release func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pins == nil {
		st.pins = make(map[int]uint64)
	}
	st.pinID++
	id := st.pinID
	st.pins[id] = seq
	return func() {
		st.mu.Lock()
		delete(st.pins, id)
		st.mu.Unlock()
	}
}

// retainFloorLocked is the lowest sequence pruning must keep reachable:
// the snapshot cut, lowered by any live follower's ack and any in-flight
// read. Caller holds st.mu.
func (st *Store) retainFloorLocked(snapSeq uint64) uint64 {
	floor := snapSeq
	now := time.Now()
	for id, f := range st.followers {
		if now.Sub(f.seen) > st.ackTTL {
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
