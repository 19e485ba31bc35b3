package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file tests the serving layer's robustness contract: request
// cancellation propagates into the engines and frees workers promptly,
// deadlines degrade gracefully instead of failing, cache integrity is
// verified on every hit, and nothing leaks goroutines.

// slowSweepBody is a sweep that takes seconds at Workers:2 — the
// simulated estimator costs ~½ ms per sample and this asks for 10 000.
const slowSweepBody = `{"node":"250nm","nets":10000,"seed":3,"rise_s":5e-11,"estimator":"simulated"}`

// tree64Body renders a 64-sink (127-node) balanced binary tree — the
// same family as rlctree's bench64 — whose shared MNA transient runs
// ~150 ms, long enough to cancel mid-flight.
func tree64Body(engine string) string {
	var b strings.Builder
	b.WriteString(`{"tree":{"root_c":2e-15,"branches":[`)
	for i := 0; i < 126; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		scale := 1 + 0.03*float64(i%4)
		fmt.Fprintf(&b, `{"parent":%d,"r":%g,"l":%g,"c":%g}`, i/2, 18*scale, 0.2e-9*scale, 25e-15*scale)
	}
	b.WriteString(`],"sinks":[`)
	// Nodes 63..126 are the 64 leaves.
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"node":%d,"cl":%g}`, 63+i, float64(4+i%8)*2e-15)
	}
	fmt.Fprintf(&b, `]},"drive":{"rtr":40},"engine":%q}`, engine)
	return b.String()
}

// postCtx drives a request through the full handler chain under ctx.
func postCtx(ctx context.Context, h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestCanceledRequestIs503WithMetadata(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ctx, stop := context.WithCancel(context.Background())
	stop()
	rec := postCtx(ctx, s.Handler(), "/v1/sweep", slowSweepBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	out := rec.Body.String()
	for _, want := range []string{`"reason":"canceled"`, `"retry_after_s":`} {
		if !strings.Contains(out, want) {
			t.Errorf("503 body missing %s: %s", want, out)
		}
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("cancellation 503 without Retry-After header")
	}
	st := s.Stats()
	if st.Canceled != 1 {
		t.Errorf("Stats.Canceled = %d, want 1", st.Canceled)
	}
	if st.Errors != 0 {
		t.Errorf("client cancellation counted as a server error (Errors = %d)", st.Errors)
	}
}

// cancelLatency measures how long a handler takes to return after its
// request context fires mid-flight; the robustness contract is ≤ 50 ms
// (one engine checkpoint).
func cancelLatency(t *testing.T, s *Server, path, body string, warmup time.Duration) (time.Duration, *httptest.ResponseRecorder) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
		t.Fatalf("%s completed in under %v; request not slow enough to cancel mid-flight", path, warmup)
	case <-time.After(warmup):
	}
	t0 := time.Now()
	stop()
	<-done
	return time.Since(t0), rec
}

func TestSweepCancelMidFlightLatency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	lat, rec := cancelLatency(t, s, "/v1/sweep", slowSweepBody, 50*time.Millisecond)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if lat > 50*time.Millisecond {
		t.Errorf("sweep freed its workers %v after cancel, want ≤ 50ms", lat)
	}
	t.Logf("10k-sample simulated sweep released %v after cancel", lat)
}

func TestTreeCancelMidFlightLatency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	lat, rec := cancelLatency(t, s, "/v1/tree", tree64Body("mna"), 30*time.Millisecond)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if lat > 50*time.Millisecond {
		t.Errorf("tree transient released %v after cancel, want ≤ 50ms", lat)
	}
	t.Logf("64-sink MNA transient released %v after cancel", lat)
}

// A real client disconnect (not a synthetic context) must cancel the
// compute the same way: the net/http server cancels r.Context() when
// the connection drops.
func TestClientDisconnectCancelsCompute(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, stop := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", strings.NewReader(slowSweepBody))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	stop()
	if err := <-errCh; err == nil {
		t.Fatal("canceled client request returned no error")
	}
	// The handler notices within one checkpoint; poll the counter
	// rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never counted the disconnected client's cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	http.DefaultClient.CloseIdleConnections()
}

func TestDeadlineExpiryIs503Deadline(t *testing.T) {
	// The closed estimator is already the cheapest, so degradation
	// cannot save a budget that is too small even for it: the sweep
	// starts, the deadline fires mid-run, 503 reason "deadline".
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 15 * time.Millisecond})
	body := `{"node":"250nm","nets":50000,"seed":3,"rise_s":5e-11,"samples":3}`
	rec := post(s.Handler(), "/v1/sweep", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"reason":"deadline"`) {
		t.Errorf("body missing deadline reason: %s", rec.Body)
	}
	if st := s.Stats(); st.Deadline != 1 {
		t.Errorf("Stats.Deadline = %d, want 1", st.Deadline)
	}
}

func TestSweepDegradesUnderDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, RequestTimeout: 300 * time.Millisecond})
	for round := 0; round < 2; round++ {
		rec := post(s.Handler(), "/v1/sweep", slowSweepBody)
		if rec.Code != 200 {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body)
		}
		out := rec.Body.String()
		if !strings.Contains(out, `"degraded":true`) || strings.Contains(out, `"estimator":"simulated"`) {
			t.Fatalf("round %d: response not degraded off the simulated estimator: %.200s", round, out)
		}
		if !strings.Contains(out, `"degrade_reason":"estimator simulated needs`) {
			t.Errorf("round %d: degrade_reason missing budget arithmetic: %.300s", round, out)
		}
		// Degraded responses are never cached: the retry recomputes.
		if got := rec.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("round %d: degraded response X-Cache = %q, want miss", round, got)
		}
	}
	if st := s.Stats(); st.Degraded != 2 {
		t.Errorf("Stats.Degraded = %d, want 2", st.Degraded)
	}
}

func TestTreeDegradesUnderDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, RequestTimeout: 40 * time.Millisecond})
	rec := post(s.Handler(), "/v1/tree", tree64Body("mna"))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	out := rec.Body.String()
	if !strings.Contains(out, `"degraded":true`) || strings.Contains(out, `"engine":"mna"`) {
		t.Fatalf("tree response not degraded off the MNA engine: %.200s", out)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("degraded tree response X-Cache = %q, want miss", got)
	}
	// The same request without a deadline answers with the full engine
	// and is cacheable.
	s2 := newTestServer(t, Config{Workers: 2})
	rec = post(s2.Handler(), "/v1/tree", tree64Body("mna"))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"engine":"mna"`) {
		t.Fatalf("undegraded request: status %d: %.200s", rec.Code, rec.Body)
	}
}

// A cache entry whose body no longer matches its stored checksum must
// be counted, reported as a miss, and recomputed — never served.
func TestPoisonedCacheEntryRecomputed(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(s.Handler(), "/v1/delay", delayBody)
	if first.Code != 200 {
		t.Fatalf("status %d", first.Code)
	}
	key, err := parseDelayRequest(strings.NewReader(delayBody))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.cache.Get(key)
	if !ok {
		t.Fatal("response was not cached")
	}
	poisoned := append([]byte(nil), e.body...)
	poisoned[len(poisoned)/2] ^= 0x40
	s.cache.Put(key, cacheEntry{body: poisoned, sum: e.sum})

	second := post(s.Handler(), "/v1/delay", delayBody)
	if second.Code != 200 {
		t.Fatalf("status %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("poisoned entry served as a %q", got)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("recomputed body differs from the original")
	}
	if st := s.Stats(); st.CachePoisoned != 1 {
		t.Errorf("Stats.CachePoisoned = %d, want 1", st.CachePoisoned)
	}
	// The recompute overwrote the poisoned entry: next hit is clean.
	if third := post(s.Handler(), "/v1/delay", delayBody); third.Header().Get("X-Cache") != "hit" {
		t.Error("cache not repaired after poisoned recompute")
	}
}

func TestAdaptiveRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	// Prime the latency EWMA with one real compute.
	if rec := post(s.Handler(), "/v1/delay", delayBody); rec.Code != 200 {
		t.Fatalf("prime: status %d", rec.Code)
	}
	s.sem <- struct{}{}
	rec := post(s.Handler(), "/v1/delay", delayBody)
	<-s.sem
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 without Retry-After")
	}
	// The hint is computed, not hardcoded: (waiters per slot + 1) × the
	// compute-time EWMA (α = ¼), clamped to [1, 30] s.
	s.computeNanos.Store(0)
	s.recordCompute(4 * time.Second)
	s.recordCompute(8 * time.Second) // 4 + (8-4)/4 = 5 s
	if got := s.retryAfterSecs(); got != 5 {
		t.Errorf("retryAfterSecs with a 5s EWMA = %d, want 5", got)
	}
	s.waiting.Store(int64(cap(s.slots)))
	if got := s.retryAfterSecs(); got != 10 {
		t.Errorf("retryAfterSecs with a slot round of waiters = %d, want 10", got)
	}
	s.waiting.Store(0)
	for range 8 {
		s.recordCompute(2 * time.Minute)
	}
	if got := s.retryAfterSecs(); got != 30 {
		t.Errorf("retryAfterSecs after 2min computes = %d, want clamp 30", got)
	}
	for range 40 {
		s.recordCompute(time.Microsecond)
	}
	if got := s.retryAfterSecs(); got != 1 {
		t.Errorf("retryAfterSecs after 1µs computes = %d, want floor 1", got)
	}
}

// Close cancels every in-flight request's context: a long sweep
// returns 503 promptly instead of holding workers through shutdown.
func TestCloseCancelsInFlight(t *testing.T) {
	s, _ := New(Config{Workers: 2})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(slowSweepBody))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	s.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight sweep did not return after Close")
	}
	if lat := time.Since(t0); lat > 500*time.Millisecond {
		t.Errorf("in-flight sweep released %v after Close", lat)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503: %s", rec.Code, rec.Body)
	}
}

// waitStableGoroutines polls until the goroutine count returns to (or
// near) base, failing with a stack dump after a deadline — the
// hand-rolled goleak assertion shared with internal/pool's tests.
func waitStableGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Mixed traffic — including mid-flight cancellations — must leave no
// goroutines behind once the server is closed.
func TestNoGoroutineLeakAfterMixedLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _ := New(Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"line":{"rt":%d,"lt":1e-7,"ct":1e-12,"length":0.01},"drive":{"rtr":250,"cl":1e-13}}`, 400+i)
			post(s.Handler(), "/v1/delay", body)
		}(i)
	}
	// Two sweeps canceled mid-flight.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, stop := context.WithCancel(context.Background())
			go func() { time.Sleep(30 * time.Millisecond); stop() }()
			postCtx(ctx, s.Handler(), "/v1/sweep", slowSweepBody)
			stop()
		}()
	}
	wg.Wait()
	s.Close()
	waitStableGoroutines(t, base)
}
