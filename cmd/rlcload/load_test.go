package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStalls is the coordinated-omission regression: a
// server that stalls 200 ms on its first request must inflate the
// latency of every request queued behind the stall, because latency is
// timed from the due time. Timed from the send, those requests would
// look instant.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	const every = 5 * time.Millisecond
	items := make([]item, 80)
	for i := range items {
		items[i] = item{at: time.Duration(i) * every, req: &request{method: "POST", path: "/", body: []byte("{}"), key: -1, churn: -1}, idx: i}
	}
	c := newClient(srv.URL, 1, func(*outcome) bool { return false })
	defer c.close()
	out := make([]outcome, len(items))
	c.runOpen(context.Background(), items, time.Now(), 1, out)

	queued := 0
	for i, o := range out {
		if !o.ok() {
			t.Fatalf("request %d: %v", i, o.err)
		}
		due := items[i].at
		if i == 0 || due >= stall-40*time.Millisecond {
			continue
		}
		queued++
		// Queued behind the stall: answered no earlier than the stall's
		// end, so charged at least its remainder.
		if o.latency < stall-due-10*time.Millisecond {
			t.Errorf("request %d due at %v: latency %v, want ≥ %v", i, due, o.latency, stall-due)
		}
		if o.connWait == 0 {
			t.Errorf("request %d due at %v: no connection wait recorded", i, due)
		}
		if o.rtt > o.latency/2 {
			t.Errorf("request %d: rtt %v is not the small part of latency %v", i, o.rtt, o.latency)
		}
	}
	if queued < 25 {
		t.Fatalf("only %d requests were due during the stall", queued)
	}
}

// TestSessionKeysSendInOrder checks that requests sharing a key go one
// at a time, in stream order, even with several senders.
func TestSessionKeysSendInOrder(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	var order []string
	done := make(chan string, 100)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		done <- r.URL.Path
		inFlight.Add(-1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	items := make([]item, 40)
	for i := range items {
		items[i] = item{req: &request{method: "POST", path: fmt.Sprintf("/k%d", i), body: []byte("{}"), key: 1, seq: i, churn: -1}, idx: i}
	}
	c := newClient(srv.URL, 4, func(*outcome) bool { return false })
	defer c.close()
	out := make([]outcome, len(items))
	c.runOpen(context.Background(), items, time.Now(), 4, out)
	close(done)
	for p := range done {
		order = append(order, p)
	}
	if maxInFlight.Load() != 1 {
		t.Errorf("%d requests of one key were in flight at once", maxInFlight.Load())
	}
	for i, p := range order {
		if p != items[i].req.path {
			t.Fatalf("request %d answered as %s, want %s", i, p, items[i].req.path)
		}
	}
}
