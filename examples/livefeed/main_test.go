package main

import (
	"net/http/httptest"
	"testing"

	"repro/internal/stream"
)

// TestPostBatchDecodesDaemonAck pins this client against the daemon's
// real batch endpoint: the happy-path ack is a hand-written
// {"accepted":N}, and postBatch must read the count out of it.
func TestPostBatchDecodesDaemonAck(t *testing.T) {
	svc, err := stream.New(stream.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(stream.NewMux(svc))
	defer srv.Close()

	lines := []string{
		"1|RAS|10|0|R00-M0|KERNEL|INFO|ok",
		"2|RAS|20|0|R00-M0|KERNEL|INFO|ok",
		"3|RAS|30|0|R00-M1|KERNEL|INFO|ok",
	}
	n, err := postBatch(srv.URL, lines)
	if err != nil || n != len(lines) {
		t.Fatalf("postBatch = %d, %v; want %d accepted", n, err, len(lines))
	}
}
