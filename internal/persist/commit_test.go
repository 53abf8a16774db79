package persist

// Tests for the asynchronous commit pipeline (commit.go): ticket
// resolution, round coalescing, and the crash/teardown edges that the
// ack-implies-durable contract upstream leans on.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/raslog"
)

// openAppender returns a store positioned for appends at seq 0.
func openAppender(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartAppend(0); err != nil {
		t.Fatal(err)
	}
	return st
}

func batch(lo, n int) []raslog.Event {
	out := make([]raslog.Event, 0, n)
	for i := lo; i < lo+n; i++ {
		out = append(out, testEvent(i))
	}
	return out
}

// TestTicketResolvesDurable pins the pipeline's core promise: once Wait
// returns nil, the batch survives an abrupt death (Abandon discards the
// write buffer, so only flushed-and-synced frames remain).
func TestTicketResolvesDurable(t *testing.T) {
	dir := t.TempDir()
	st := openAppender(t, dir, Options{})
	events := batch(0, 5)
	if _, tk, err := st.AppendBatch(0, events); err != nil {
		t.Fatal(err)
	} else if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("ticket.Wait: %v", err)
	}
	st.Abandon()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var got int
	end, err := st2.Replay(0, func(seq uint64, e raslog.Event) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != uint64(len(events)) || got != len(events) {
		t.Fatalf("after acked commit + abandon: replayed %d events to seq %d, want %d", got, end, len(events))
	}
}

// TestTicketsCoalesceIntoOneRound: every batch appended while the
// syncer lingers (SyncMaxWait) or is busy joins the same pending round,
// so one fsync covers them all.
func TestTicketsCoalesceIntoOneRound(t *testing.T) {
	st := openAppender(t, t.TempDir(), Options{SyncMaxWait: time.Minute})
	defer st.Close()
	var tickets []Ticket
	seq := uint64(0)
	for i := 0; i < 3; i++ {
		ev := batch(int(seq), 4)
		_, tk, err := st.AppendBatch(seq, ev)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		seq += uint64(len(ev))
	}
	for i, tk := range tickets {
		if tk.r == nil {
			t.Fatalf("ticket %d has no round", i)
		}
		if tk.r != tickets[0].r {
			t.Fatalf("ticket %d got its own round; want all three coalesced", i)
		}
		if tk.Done() {
			t.Fatalf("ticket %d resolved before any fsync could have run (SyncMaxWait=1m)", i)
		}
	}
	// The inline sync (snapshot/rotation/Close path) completes the round.
	if _, err := st.WriteSnapshot(&Snapshot{Seq: seq}); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d after WriteSnapshot: %v", i, err)
		}
	}
}

// TestAbandonFailsPendingTickets: a crash between enqueue and fsync must
// resolve outstanding tickets with an error — their waiters must not
// acknowledge the batch.
func TestAbandonFailsPendingTickets(t *testing.T) {
	st := openAppender(t, t.TempDir(), Options{SyncMaxWait: time.Minute})
	_, tk, err := st.AppendBatch(0, batch(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	st.Abandon()
	if err := tk.Wait(context.Background()); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("pending ticket after Abandon: err = %v, want ErrAbandoned", err)
	}
	// The dead store keeps handing out failing tickets, never durable acks.
	if _, tk, err := st.AppendBatch(3, batch(3, 1)); err != nil {
		t.Fatalf("dead store AppendBatch: err = %v, want nil (silent no-op)", err)
	} else if err := tk.Wait(context.Background()); !errors.Is(err, ErrAbandoned) {
		t.Fatalf("dead store ticket: err = %v, want ErrAbandoned", err)
	}
}

// TestCloseResolvesPendingTickets: graceful shutdown syncs, so tickets
// still pending resolve successfully and the frames are on disk.
func TestCloseResolvesPendingTickets(t *testing.T) {
	dir := t.TempDir()
	st := openAppender(t, dir, Options{SyncMaxWait: time.Minute})
	_, tk, err := st.AppendBatch(0, batch(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("ticket after Close: %v", err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	end, err := st2.Replay(0, func(uint64, raslog.Event) error { return nil })
	if err != nil || end != 4 {
		t.Fatalf("replay end = %d err = %v, want 4, nil", end, err)
	}
}

// TestSnapshotCoversPendingTickets: WriteSnapshot syncs the WAL first,
// so a snapshot at seq n also resolves every ticket at or below n —
// the invariant that makes forward-before-fsync safe upstream.
func TestSnapshotCoversPendingTickets(t *testing.T) {
	st := openAppender(t, t.TempDir(), Options{SyncMaxWait: time.Minute})
	defer st.Close()
	_, tk, err := st.AppendBatch(0, batch(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(&Snapshot{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if !tk.Done() {
		t.Fatal("ticket still pending after WriteSnapshot; snapshot must imply WAL durability")
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("ticket after snapshot: %v", err)
	}
}

// TestTicketWaitContext: an expired context returns without resolving
// durability; the ticket can still be awaited afterwards.
func TestTicketWaitContext(t *testing.T) {
	st := openAppender(t, t.TempDir(), Options{SyncMaxWait: time.Minute})
	_, tk, err := st.AppendBatch(0, batch(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait(canceled ctx): %v, want context.Canceled", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after Close: %v", err)
	}
}

// TestZeroAndFailedTickets pins the sentinel shapes the stream layer
// depends on: the zero Ticket is immediately durable, FailedTicket
// reports its error forever.
func TestZeroAndFailedTickets(t *testing.T) {
	var zero Ticket
	if !zero.Done() {
		t.Fatal("zero Ticket must be done")
	}
	if err := zero.Wait(context.Background()); err != nil {
		t.Fatalf("zero Ticket Wait: %v", err)
	}
	sentinel := errors.New("boom")
	ft := FailedTicket(sentinel)
	if !ft.Done() {
		t.Fatal("FailedTicket must be done")
	}
	if err := ft.Wait(context.Background()); !errors.Is(err, sentinel) {
		t.Fatalf("FailedTicket Wait: %v, want sentinel", err)
	}
}

// TestSharedSyncExecutor: two stores sharing one single-slot executor
// both commit; the semaphore serializes the fsyncs, it never deadlocks
// or starves a store.
func TestSharedSyncExecutor(t *testing.T) {
	exec := NewSyncExecutor(1)
	stA := openAppender(t, t.TempDir(), Options{SyncExec: exec})
	defer stA.Close()
	stB := openAppender(t, t.TempDir(), Options{SyncExec: exec})
	defer stB.Close()

	var tks []Ticket
	for i := 0; i < 4; i++ {
		_, ta, err := stA.AppendBatch(uint64(i), batch(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		_, tb, err := stB.AppendBatch(uint64(i), batch(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, ta, tb)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, tk := range tks {
		if err := tk.Wait(ctx); err != nil {
			t.Fatalf("ticket %d under shared executor: %v", i, err)
		}
	}
}

// TestRotationPreservesTicketSegments: a rotation mid-stream completes
// the pending round on the old segment before the new one exists, so no
// ticket ever spans segments and torn tails stay confined to the final
// segment.
func TestRotationPreservesTicketSegments(t *testing.T) {
	dir := t.TempDir()
	st := openAppender(t, dir, Options{RotateBytes: 128, SyncMaxWait: time.Minute})
	var tks []Ticket
	seq := uint64(0)
	for i := 0; i < 16; i++ {
		ev := batch(int(seq), 2)
		_, tk, err := st.AppendBatch(seq, ev)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
		seq += 2
	}
	// Everything but the final round was already made durable by the
	// rotations' inline syncs; Abandon discards only the last buffer.
	st.Abandon()
	durable := uint64(0)
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	end, err := st2.Replay(0, func(uint64, raslog.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	durable = end
	for i, tk := range tks {
		err := tk.Wait(context.Background())
		covered := uint64((i + 1) * 2)
		if err == nil && covered > durable {
			t.Fatalf("ticket %d acked through seq %d but only %d survive on disk", i, covered, durable)
		}
	}
}
