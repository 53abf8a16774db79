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

// ScanLog streams every event of a text-codec log to fn, stopping at the
// first decode or callback error.
func ScanLog(r io.Reader, fn func(Event) error) error {
	sc := NewScanner(r)
	for sc.Scan() {
		if err := fn(sc.Event()); err != nil {
			return err
		}
	}
	return sc.Err()
}
