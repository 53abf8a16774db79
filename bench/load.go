package main

// The load generator: one process, one keep-alive connection per sender,
// pre-encoded bodies. Paced phases are open loop — request k of a lane
// is due at t0 + (events before it)/rate whatever the daemon is doing,
// latency runs from the due instant, and how late the generator itself
// ran is reported. The saturate phase is closed loop: every connection
// sends its next request as soon as the previous one is acked.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sender is one keep-alive connection to the daemon.
type sender struct {
	client *http.Client
	base   string
}

func newSender(base string) *sender {
	return &sender{
		base: base,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// post sends one ingest request; accepted is the daemon's count.
func (s *sender) post(r *request) (status int, accepted int, err error) {
	resp, err := s.client.Post(s.base+r.path, "text/plain", bytes.NewReader(r.body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, err
	}
	var reply struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return resp.StatusCode, 0, err
	}
	return resp.StatusCode, reply.Accepted, nil
}

// laneRun is a lane's dispatch state. Requests leave in index order and
// at most one per connection is outstanding, as a sliding window: request
// i+window is not sent before request i is acked, however early the
// requests between them finish. Two connections can therefore only ever
// invert adjacent batches at the daemon, which its reorder tolerance
// absorbs exactly (a batch spans less than the tolerance); without the
// window a connection that stalls for two request times would see its
// batch late-dropped behind a stream-time gap. A shipper with a send
// window behaves this way.
type laneRun struct {
	reqs    []request
	senders []*sender

	mu    sync.Mutex
	ready *sync.Cond
	next  int64          // next index to dispatch
	base  int64          // lowest index not yet acked
	acked map[int64]bool // acked indexes above base
}

func newLaneRun(reqs []request, senders []*sender) *laneRun {
	l := &laneRun{reqs: reqs, senders: senders, acked: map[int64]bool{}}
	l.ready = sync.NewCond(&l.mu)
	return l
}

// take claims the next request index below limit, waiting for the send
// window to open.
func (l *laneRun) take(limit int64) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.next < limit && l.next-l.base >= int64(len(l.senders)) {
		l.ready.Wait()
	}
	if l.next >= limit {
		return 0, false
	}
	l.next++
	return l.next - 1, true
}

// ack marks idx answered (whatever the answer) and slides the window.
func (l *laneRun) ack(idx int64) {
	l.mu.Lock()
	l.acked[idx] = true
	for l.acked[l.base] {
		delete(l.acked, l.base)
		l.base++
	}
	l.mu.Unlock()
	l.ready.Broadcast()
}

// cursor is the next index to dispatch; between phases, also the number
// of requests answered.
func (l *laneRun) cursor() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// eventsLimit returns the first index at which the lane, starting at its
// cursor, has dispatched at least n events (capped at the lane's end).
func (l *laneRun) eventsLimit(n float64) int64 {
	i := l.cursor()
	sum := 0.0
	for i < int64(len(l.reqs)) && sum < n {
		sum += float64(len(l.reqs[i].events))
		i++
	}
	return i
}

// warnReader issues GET /warnings?n=50 at 10 Hz on whichever sender
// connection is between batches (traced runs only): the read path must
// not move ack latency.
type warnReader struct {
	nextDue atomic.Int64 // unix nanos
	mu      sync.Mutex
	took    []time.Duration
}

func (wr *warnReader) maybeRead(s *sender) {
	if wr == nil {
		return
	}
	now := time.Now().UnixNano()
	due := wr.nextDue.Load()
	if now < due || !wr.nextDue.CompareAndSwap(due, now+int64(100*time.Millisecond)) {
		return
	}
	t0 := time.Now()
	resp, err := s.client.Get(s.base + "/warnings?n=50")
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wr.mu.Lock()
	wr.took = append(wr.took, time.Since(t0))
	wr.mu.Unlock()
}

// phaseStats is what one load phase observed from the client side.
type phaseStats struct {
	Name     string
	Rate     float64 // offered events/s; 0 for the closed-loop phase
	Wall     time.Duration
	Requests int64
	Acked    int64 // events the daemon acknowledged
	Sent     int64 // events attempted
	Lat      []time.Duration
	Late     []time.Duration // generator lateness per request (paced)

	Refused429, Refused503, TransportErrs, OtherErrs int64
	FailedEvents                                     int64
}

// runPhase drives every lane from its cursor. rate > 0 paces the phase
// open loop over `dur` of schedule; rate == 0 sends closed loop until
// dur has elapsed, maxEvents (when > 0) have been dispatched, or the
// lanes run dry (minus `reserve` requests per lane kept for later
// phases).
func runPhase(name string, lanes []*laneRun, rate float64, dur time.Duration, maxEvents float64, reserve int, wr *warnReader) phaseStats {
	ps := phaseStats{Name: name, Rate: rate}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(5 * time.Millisecond) // let every worker reach its first wait
	for _, l := range lanes {
		start := l.cursor()
		limit := int64(len(l.reqs) - reserve)
		var due []time.Duration
		if maxEvents > 0 {
			limit = min(limit, l.eventsLimit(maxEvents/float64(len(lanes))))
		}
		if rate > 0 {
			laneRate := rate / float64(len(lanes))
			limit = min(limit, l.eventsLimit(laneRate*dur.Seconds()))
			due = make([]time.Duration, limit-start)
			sum := 0.0
			for k := range due {
				due[k] = time.Duration(sum / laneRate * float64(time.Second))
				sum += float64(len(l.reqs[start+int64(k)].events))
			}
		}
		for _, s := range l.senders {
			wg.Add(1)
			go func(l *laneRun, s *sender) {
				defer wg.Done()
				var local phaseStats
				for {
					if rate == 0 && time.Since(t0) >= dur {
						break
					}
					wr.maybeRead(s)
					idx, ok := l.take(limit)
					if !ok {
						break
					}
					r := &l.reqs[idx]
					from := time.Now()
					if rate > 0 {
						at := t0.Add(due[idx-start])
						if wait := time.Until(at); wait > 0 {
							time.Sleep(wait)
						}
						local.Late = append(local.Late, max(0, time.Since(at)))
						from = at
					} else if wait := time.Until(t0); wait > 0 {
						time.Sleep(wait)
						from = t0
					}
					status, accepted, err := s.post(r)
					l.ack(idx)
					local.Lat = append(local.Lat, time.Since(from))
					local.Requests++
					local.Sent += int64(len(r.events))
					local.Acked += int64(accepted)
					switch {
					case err != nil:
						local.TransportErrs++
					case status == http.StatusTooManyRequests:
						local.Refused429++
					case status == http.StatusServiceUnavailable:
						local.Refused503++
					case status != http.StatusOK:
						local.OtherErrs++
					}
					if err != nil || status != http.StatusOK {
						local.FailedEvents += int64(len(r.events) - accepted)
					}
				}
				mu.Lock()
				ps.merge(local)
				mu.Unlock()
			}(l, s)
		}
	}
	wg.Wait()
	ps.Wall = time.Since(t0)
	return ps
}

func (ps *phaseStats) merge(o phaseStats) {
	ps.Requests += o.Requests
	ps.Acked += o.Acked
	ps.Sent += o.Sent
	ps.Lat = append(ps.Lat, o.Lat...)
	ps.Late = append(ps.Late, o.Late...)
	ps.Refused429 += o.Refused429
	ps.Refused503 += o.Refused503
	ps.TransportErrs += o.TransportErrs
	ps.OtherErrs += o.OtherErrs
	ps.FailedEvents += o.FailedEvents
}

// latenessGrowing reports whether the generator fell further behind
// across the phase: the last quarter's median lateness exceeds the first
// quarter's by more than 5 ms. Lateness is recorded per worker, so the
// two quarters are taken over dispatch order approximately; a backlog
// that grows shows either way.
func latenessGrowing(late []time.Duration) bool {
	if len(late) < 40 {
		return false
	}
	q := len(late) / 4
	head := median(msOf(late[:q]))
	tail := median(msOf(late[len(late)-q:]))
	return tail-head > 5
}
