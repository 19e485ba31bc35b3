package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome records one sent request.
type outcome struct {
	req   *request
	idx   int // stream index, or probe index for probes
	probe bool
	// timed marks an open-phase or saturate request (warm-up requests
	// are sent but not timed).
	timed bool
	// lag is how late the generator dispatched a request whose sender
	// was idle at its due time; connWait is how long a request waited
	// for a sender (connection) to come free.
	lag, connWait time.Duration
	// latency runs from the due time (open loop) or the send (closed
	// loop) to the last response byte; rtt from the send.
	latency, rtt time.Duration
	hit          bool
	body         []byte // kept for probes and sampled requests
	err          error  // transport error, bad status or body, or a reference mismatch
}

func (o *outcome) ok() bool { return o.err == nil }

// client sends a workload's requests over at most conns keep-alive
// connections, one request in flight per connection.
type client struct {
	base string
	hc   *http.Client
	keep func(o *outcome) bool // whether to keep a response body for verification

	mu       sync.Mutex
	turnDone *sync.Cond
	turn     map[int]int    // key → seq of the next request allowed to go
	churnIDs map[int]string // churn session → its daemon session ID
}

func newClient(base string, conns int, keep func(o *outcome) bool) *client {
	c := &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		keep:     keep,
		turn:     make(map[int]int),
		churnIDs: make(map[int]string),
	}
	c.turnDone = sync.NewCond(&c.mu)
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// waitTurn blocks until every earlier request with r's key has been
// answered. Requests are taken in stream order, so the holder of the
// earliest unanswered request never waits and the senders cannot
// deadlock.
func (c *client) waitTurn(r *request) {
	if r.key < 0 {
		return
	}
	c.mu.Lock()
	for c.turn[r.key] != r.seq {
		c.turnDone.Wait()
	}
	c.mu.Unlock()
}

func (c *client) doneTurn(r *request) {
	if r.key < 0 {
		return
	}
	c.mu.Lock()
	c.turn[r.key]++
	c.mu.Unlock()
	c.turnDone.Broadcast()
}

// path resolves a churn close's path from the ID its open returned.
func (c *client) path(r *request) (string, error) {
	if r.path != "" {
		return r.path, nil
	}
	c.mu.Lock()
	id, ok := c.churnIDs[r.churn]
	c.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("churn session %d has no ID (its open failed)", r.churn)
	}
	return "/v1/session/" + id, nil
}

// do sends one request (after its key's turn) and fills o's response
// fields. A non-200 status or a body that is not one JSON value is an
// error; the body itself is checked against the reference later.
func (c *client) do(ctx context.Context, o *outcome) {
	r := o.req
	c.waitTurn(r)
	defer c.doneTurn(r)
	start := time.Now()
	defer func() { o.rtt = time.Since(start) }()
	path, err := c.path(r)
	if err != nil {
		o.err = err
		return
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		o.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.hit = resp.Header.Get("X-Cache") == "hit"
	switch {
	case err != nil:
		o.err = fmt.Errorf("read body: %w", err)
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	case !json.Valid(body):
		o.err = fmt.Errorf("response is not JSON: %.200s", body)
	}
	if o.err == nil && r.kind == "session.open" && r.churn >= 0 {
		var open struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(body, &open); err != nil || open.SessionID == "" {
			o.err = fmt.Errorf("session open answered no session_id: %.200s", body)
		} else {
			c.mu.Lock()
			c.churnIDs[r.churn] = open.SessionID
			c.mu.Unlock()
		}
	}
	if c.keep(o) {
		o.body = body
	}
}

// runOpen sends the open-loop schedule: conns senders take items in
// order and send each at its due time t0+at, or as soon as a sender is
// free if it is already late. Latency is timed from the due time, so a
// stall delays — and is charged to — every request queued behind it
// (no coordinated omission). out[i] receives items[i]'s outcome.
func (c *client) runOpen(ctx context.Context, items []item, t0 time.Time, conns int, out []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := &items[i]
				o := &out[i]
				o.req, o.idx, o.probe = it.req, it.idx, it.probe
				due := t0.Add(it.at)
				if wait := time.Until(due); wait > 0 {
					if err := sleepUntil(ctx, due); err != nil {
						o.err = err
						return
					}
					o.lag = time.Since(due)
				} else {
					o.connWait = -wait
				}
				c.do(ctx, o)
				o.latency = time.Since(due)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil waits until t. The runtime's timers wake a process that is
// otherwise idle with millisecond granularity (the network poller's
// epoll_wait timeout), which alone would make the generator up to 1 ms
// late, so the last stretch before t is slept in nanosleep, on the
// kernel's high-resolution timer. Only that stretch holds the thread in
// a syscall; the rest waits on a runtime timer.
func sleepUntil(ctx context.Context, t time.Time) error {
	const fine = 2 * time.Millisecond
	if coarse := time.Until(t) - fine; coarse > 0 {
		timer := time.NewTimer(coarse)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(min(d, fine)))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is re-slept by the loop
	}
	return nil
}

// runSaturate is the closed loop: conns senders send back to back,
// drawing on the stream, until dur has passed since the phase started.
// Requests started before the deadline run to completion; the returned
// duration runs from the start to the last completion.
func (c *client) runSaturate(ctx context.Context, next func() (*request, int), dur time.Duration, conns int) ([]outcome, time.Duration) {
	var (
		mu   sync.Mutex
		outs []outcome
		last time.Time
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				if !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				r, idx := next()
				mu.Unlock()
				o := outcome{req: r, idx: idx, timed: true}
				start := time.Now()
				c.do(ctx, &o)
				end := time.Now()
				o.latency = end.Sub(start)
				mu.Lock()
				outs = append(outs, o)
				if end.After(last) {
					last = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, last.Sub(t0)
}

var errMismatch = errors.New("response differs from the in-process reference")
