package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlckit/internal/cancel"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const delayBody = `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"drive":{"rtr":500,"cl":5e-13}}`

func TestDelayEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(s.Handler(), "/v1/delay", delayBody)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	out := rec.Body.String()
	for _, want := range []string{`"delay_s":`, `"method":"eq9"`, `"delay_rc_s":`, `"zeta":2.25`} {
		if !strings.Contains(out, want) {
			t.Errorf("response missing %s:\n%s", want, out)
		}
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
}

func TestDelayCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(s.Handler(), "/v1/delay", delayBody)
	// Same canonical request, different JSON formatting.
	reformatted := `{ "drive": {"cl":5e-13, "rtr":500},
	  "line": {"rt":1e3, "lt":0.0000001, "ct":1e-12, "length":1e-2} }`
	second := post(s.Handler(), "/v1/delay", reformatted)
	if second.Header().Get("X-Cache") != "hit" {
		t.Fatal("reformatted identical request missed the cache")
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cache hit returned different bytes than the original response")
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit 1 miss", st.Cache)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	post(s.Handler(), "/v1/delay", delayBody)
	rec := post(s.Handler(), "/v1/delay", delayBody)
	if rec.Header().Get("X-Cache") != "miss" {
		t.Error("disabled cache still produced a hit")
	}
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		path, body, wantErr string
	}{
		{"/v1/delay", `{`, "unexpected EOF"},
		{"/v1/delay", `{"bogus":1}`, "unknown field"},
		{"/v1/delay", delayBody + `{"again":true}`, "trailing data"},
		{"/v1/delay", `{"line":{"rt":1000,"lt":0,"ct":1e-12,"length":0.01},"drive":{}}`, "L must be positive"},
		{"/v1/delay", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"drive":{"rtr":-5}}`, "Rtr must be"},
		{"/v1/delay", strings.Replace(delayBody, `}}`, `},"method":"wumpus"}`, 1), "unknown method"},
		{"/v1/screen", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"drive":{},"rise_s":0}`, "rise_s must be positive"},
		{"/v1/repeaters", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01}}`, "missing buffer or node"},
		{"/v1/repeaters", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"node":"250nm","buffer":{"r0":1,"c0":1}}`, "not both"},
		{"/v1/repeaters", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"node":"9nm"}`, "unknown"},
		{"/v1/repeaters", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"node":"250nm","model":"lc"}`, "unknown model"},
		{"/v1/sweep", `{"nets":10,"seed":1,"rise_s":5e-11}`, "missing node"},
		{"/v1/sweep", `{"node":"250nm","nets":0,"rise_s":5e-11}`, "nets must be"},
		{"/v1/sweep", `{"node":"250nm","nets":999999,"rise_s":5e-11}`, "nets must be"},
		{"/v1/sweep", `{"node":"250nm","nets":50000,"samples":64,"rise_s":5e-11}`, "exceeds"},
		{"/v1/sweep", `{"node":"250nm","nets":10,"rise_s":5e-11,"corners":["zz"]}`, "unknown corner"},
		{"/v1/sweep", `{"node":"250nm","nets":10,"rise_s":5e-11,"sigma":3}`, "sigmas must be"},
	}
	for _, c := range cases {
		rec := post(s.Handler(), c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", c.path, c.body, rec.Code)
			continue
		}
		if !strings.Contains(rec.Body.String(), c.wantErr) {
			t.Errorf("%s %q: error %q missing %q", c.path, c.body, rec.Body.String(), c.wantErr)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("GET", "/v1/delay", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/delay status = %d, want 405", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestBackpressure fills the admission semaphore directly and checks
// the next request is shed with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	rec := post(s.Handler(), "/v1/delay", delayBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-s.sem
	<-s.sem
	if rec := post(s.Handler(), "/v1/delay", delayBody); rec.Code != 200 {
		t.Fatalf("after release: status %d, want 200", rec.Code)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestResponsesIdenticalAcrossWorkers is the serving determinism
// contract: the same request set, fired concurrently at servers with
// different worker counts and cache settings, produces byte-identical
// bodies, whether computed or (on a cached server's second pass)
// served from the cache.
func TestResponsesIdenticalAcrossWorkers(t *testing.T) {
	type reqSpec struct{ path, body string }
	var reqs []reqSpec
	for i := 0; i < 8; i++ {
		line := fmt.Sprintf(`{"rt":%d,"lt":1e-7,"ct":1e-12,"length":0.01}`, 500+100*i)
		reqs = append(reqs,
			reqSpec{"/v1/delay", `{"line":` + line + `,"drive":{"rtr":250,"cl":1e-13}}`},
			reqSpec{"/v1/screen", `{"line":` + line + `,"drive":{"rtr":250,"cl":1e-13},"rise_s":5e-11}`},
			reqSpec{"/v1/repeaters", `{"line":` + line + `,"node":"250nm"}`},
		)
	}
	reqs = append(reqs, reqSpec{"/v1/sweep",
		`{"node":"250nm","nets":50,"seed":7,"rise_s":5e-11,"samples":2,"sigma":0.1,"drive_sigma":0.1,"repeaters":true}`})

	collect := func(s *Server) []string {
		out := make([]string, len(reqs))
		var wg sync.WaitGroup
		for i, r := range reqs {
			wg.Add(1)
			go func(i int, r reqSpec) {
				defer wg.Done()
				rec := post(s.Handler(), r.path, r.body)
				if rec.Code != 200 {
					t.Errorf("%s: status %d: %s", r.path, rec.Code, rec.Body)
				}
				out[i] = rec.Body.String()
			}(i, r)
		}
		wg.Wait()
		return out
	}

	ref := collect(newTestServer(t, Config{Workers: 1, CacheEntries: -1}))
	for _, workers := range []int{1, 3, 8} {
		for _, entries := range []int{-1, 0} {
			cfg := Config{Workers: workers, CacheEntries: entries}
			s := newTestServer(t, cfg)
			passes := 1
			if entries >= 0 {
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				got := collect(s)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("cfg %+v pass %d: response %d (%s) differs\n got: %s\nwant: %s",
							cfg, pass, i, reqs[i].path, got[i], ref[i])
					}
				}
			}
		}
	}
}

// waitUntil polls cond until it holds, failing the test after a
// deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdSlots takes every compute slot, as running computes would, and
// releases them at test end.
func holdSlots(t *testing.T, s *Server) {
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	t.Cleanup(func() {
		for range cap(s.slots) {
			<-s.slots
		}
	})
}

// A miss waits only for a free compute slot, never for another
// request's compute to finish: with two slots and one compute parked,
// a fresh /v1/delay miss answers while the parked compute still runs.
func TestMissNotBlockedByRunningCompute(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.compute(context.Background(), func() error {
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() { answered <- post(s.Handler(), "/v1/delay", delayBody) }()
	select {
	case rec := <-answered:
		if rec.Code != 200 {
			t.Errorf("miss beside a parked compute: status %d: %s", rec.Code, rec.Body)
		}
	case <-time.After(5 * time.Second):
		t.Error("miss still waiting behind the parked compute after 5s")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked compute: %v", err)
	}
}

// A request whose context fires while every slot is busy gives up
// without running its compute: the typed cancel error, 503 "canceled",
// counted in BatchSkipped.
func TestCanceledWhileWaitingForSlot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	holdSlots(t, s)
	ctx, stop := context.WithCancel(context.Background())
	ran := false
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.compute(ctx, func() error { ran = true; return nil })
	}()
	waitUntil(t, "a slot waiter", func() bool { return s.waiting.Load() == 1 })
	stop()
	if err := <-errCh; !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("compute canceled while waiting: err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Error("canceled waiter's compute ran")
	}
	if got := s.Stats().BatchSkipped; got != 1 {
		t.Errorf("BatchSkipped = %d, want 1", got)
	}

	rec := postCtx(ctx, s.Handler(), "/v1/delay", delayBody)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"reason":"canceled"`) {
		t.Fatalf("canceled request with every slot busy: status %d: %s", rec.Code, rec.Body)
	}
	if got := s.Stats().BatchSkipped; got != 2 {
		t.Errorf("BatchSkipped = %d, want 2", got)
	}
}

// A closed server refuses compute with errClosed, 503 "shutdown" —
// both a request already waiting for a slot when Close lands and one
// arriving afterwards — and never runs the closure.
func TestComputeRefusedAfterClose(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	holdSlots(t, s)
	waiter := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiter <- post(s.Handler(), "/v1/delay", delayBody) }()
	waitUntil(t, "a slot waiter", func() bool { return s.waiting.Load() == 1 })
	s.Close()
	for _, rec := range []*httptest.ResponseRecorder{<-waiter, post(s.Handler(), "/v1/delay", delayBody)} {
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"reason":"shutdown"`) {
			t.Errorf("request on a closed server: status %d: %s", rec.Code, rec.Body)
		}
	}
	ran := false
	if err := s.compute(context.Background(), func() error { ran = true; return nil }); !errors.Is(err, errClosed) {
		t.Errorf("compute after Close: err = %v, want errClosed", err)
	}
	if ran {
		t.Error("compute after Close ran its closure")
	}
	if got := s.Stats().BatchSkipped; got != 0 {
		t.Errorf("shutdown refusals counted as skipped: BatchSkipped = %d", got)
	}
}

// Concurrent misses never run more than Workers computes at once, and
// every started compute counts as a batch of one.
func TestComputeSlotsBoundParallelism(t *testing.T) {
	const workers, n = 3, 64
	s := newTestServer(t, Config{Workers: workers})
	var running, peak atomic.Int64
	full := make(chan struct{})
	var fullOnce sync.Once
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.compute(context.Background(), func() error {
				defer running.Add(-1)
				cur := running.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				if cur == workers {
					fullOnce.Do(func() { close(full) })
				}
				// Hold the slot until every slot has been busy at once, then
				// a little longer, so computes past the bound would overlap.
				select {
				case <-full:
				case <-time.After(5 * time.Second):
				}
				time.Sleep(time.Millisecond)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != workers {
		t.Errorf("peak concurrent computes = %d, want %d", p, workers)
	}
	st := s.Stats()
	if st.Batches != n || st.Batched != n || st.BatchSkipped != 0 {
		t.Errorf("Batches/Batched/BatchSkipped = %d/%d/%d, want %d/%d/0", st.Batches, st.Batched, st.BatchSkipped, n, n)
	}
}

// A compute panic is a server fault: recovered into errPanic, mapped
// to 500 by failCompute — never a daemon crash, never a 400 blaming
// the request.
func TestComputePanicIs500(t *testing.T) {
	s := newTestServer(t, Config{})
	err := s.compute(context.Background(), func() error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "internal error: boom") {
		t.Fatalf("compute panic -> %v", err)
	}
	rec := httptest.NewRecorder()
	s.failCompute(rec, err)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic error mapped to %d, want 500", rec.Code)
	}
}

func TestStatsRequestCounts(t *testing.T) {
	s := newTestServer(t, Config{})
	post(s.Handler(), "/v1/delay", delayBody)
	post(s.Handler(), "/v1/delay", delayBody)
	post(s.Handler(), "/v1/screen", `{"line":{"rt":1000,"lt":1e-7,"ct":1e-12,"length":0.01},"drive":{},"rise_s":5e-11}`)
	st := s.Stats()
	if st.Requests["delay"] != 2 || st.Requests["screen"] != 1 {
		t.Errorf("Requests = %v", st.Requests)
	}
}
