package raslog

import (
	"bufio"
	"fmt"
	"io"
)

// Scanner is a line-streaming decoder for the text codec: it yields one
// Event at a time from an io.Reader without materializing the whole log,
// the input side of long-running ingestion (cmd/predict, cmd/serve).
//
//	sc := raslog.NewScanner(r)
//	for sc.Scan() {
//		use(sc.Event())
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	sc  *bufio.Scanner
	buf []byte // sc's initial line buffer, kept across Reset
	// in dedups the stream's string vocabulary so steady-state scanning
	// allocates nothing per line (the fields of repeated values are shared).
	in     *Interner
	event  Event
	err    error
	lineNo int
}

// NewScanner returns a decoder over r with the same line-size limits as
// ReadLog.
func NewScanner(r io.Reader) *Scanner {
	s := &Scanner{sc: new(bufio.Scanner), buf: make([]byte, 1<<16), in: NewInterner()}
	s.Reset(r)
	return s
}

// Reset makes s decode r from its first line, as a new Scanner would, but
// keeps the line buffer and the interned vocabulary — what a server pays
// per request otherwise. Events already returned stay valid: their
// strings are never views into the buffer.
func (s *Scanner) Reset(r io.Reader) {
	*s.sc = *bufio.NewScanner(r)
	s.sc.Buffer(s.buf, 1<<20)
	s.event, s.err, s.lineNo = Event{}, nil, 0
}

// Scan advances to the next event. It returns false at end of input or on
// the first decode error; Err distinguishes the two.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.lineNo++
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := ParseLineBytes(line, s.in)
		if err != nil {
			s.err = fmt.Errorf("raslog: line %d: %w", s.lineNo, err)
			return false
		}
		s.event = e
		return true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("raslog: read: %w", err)
	}
	return false
}

// Event returns the event decoded by the last successful Scan.
func (s *Scanner) Event() Event { return s.event }

// Err returns the first error encountered, or nil at clean end of input.
func (s *Scanner) Err() error { return s.err }

// Line returns the 1-based number of the last non-empty line consumed.
func (s *Scanner) Line() int { return s.lineNo }

// scanChunk is the number of events ScanLog's decoder hands over at a
// time: enough that the channel operations vanish per event, few enough
// that a chunk (88 KiB) is still in cache when the caller reads it. On a
// 2-core host 1024 beat 256, 512, 2048, 4096 and 8192.
const scanChunk = 1024

// scanAhead is how many decoded chunks may wait for the caller: enough to
// ride out a caller's slow spell (a filter burst, a GC assist) without
// stalling the decoder; deeper queues measured no faster.
const scanAhead = 4

// ScanLog streams every event of a text-codec log to fn, in file order,
// stopping at the first decode or callback error.
//
// Decoding overlaps fn: a Scanner runs on its own goroutine and passes
// events over in chunks, so r may be read ahead of the event fn is
// handed — by at most (scanAhead+2)·scanChunk events plus one line
// buffer. A decode error is returned only after fn has seen every event
// before the bad line; an error from fn stops the decoder and is returned
// unchanged. ScanLog returns (or re-panics a panic from fn) only once the
// decoder goroutine has exited.
func ScanLog(r io.Reader, fn func(Event) error) error {
	// full carries decoded chunks in file order; free recycles their
	// slices. At most scanAhead+2 chunks exist (scanAhead queued, one
	// being filled, one being read), so a put on free never blocks.
	full := make(chan []Event, scanAhead)
	free := make(chan []Event, scanAhead+2)
	stop := make(chan struct{})
	done := make(chan struct{})
	var decodeErr error // written before full closes, read after
	go func() {
		defer close(done)
		defer close(full)
		decodeErr = decodeChunks(NewScanner(r), full, free, stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for chunk := range full {
		for i := range chunk {
			if err := fn(chunk[i]); err != nil {
				return err
			}
		}
		free <- chunk[:0]
	}
	return decodeErr
}

// decodeChunks is ScanLog's decoder: it fills chunks from sc and sends
// them on full until the input ends, a line fails to decode, or stop is
// closed, and returns the Scanner's error.
func decodeChunks(sc *Scanner, full chan<- []Event, free <-chan []Event, stop <-chan struct{}) error {
	for {
		var chunk []Event
		select {
		case <-stop:
			return nil
		case chunk = <-free:
		default:
			chunk = make([]Event, 0, scanChunk)
		}
		for len(chunk) < scanChunk && sc.Scan() {
			chunk = append(chunk, sc.Event())
		}
		if len(chunk) > 0 {
			select {
			case full <- chunk:
			case <-stop:
				return nil
			}
		}
		if len(chunk) < scanChunk {
			return sc.Err()
		}
	}
}
