// Package serve is rlckit's HTTP serving layer: JSON endpoints that
// answer the paper's design-time questions over a wire.
//
//	POST /v1/delay      → 50% propagation delay (RLC vs RC-only)
//	POST /v1/screen     → does inductance matter for this net?
//	POST /v1/repeaters  → optimum repeater insertion plan
//	POST /v1/sweep      → seeded Monte Carlo population statistics
//	POST /v1/tree       → per-sink delay and skew of a multi-sink tree
//
// Three serving mechanisms sit between the HTTP handlers and the
// analysis facade:
//
//   - A sharded LRU cache (internal/cache) keyed by the canonical
//     values of (Line, Drive, config) stores fully rendered response
//     bodies, so a repeated question skips both compute and JSON
//     encoding. The /v1/delay hot path is two orders of magnitude
//     faster than a cold exact-engine analysis (BenchmarkServeDelayHot
//     vs BenchmarkServeDelayCold). Every stored body carries a
//     checksum, verified on each hit: a corrupted entry is counted
//     (Stats.CachePoisoned) and recomputed, never served.
//   - Compute slots bound single-net compute parallelism at the
//     configured worker count: a cache miss takes one of Workers slots
//     and computes on its own request goroutine, so a miss waits only
//     while every slot is busy, never behind another request's
//     compute.
//   - An in-flight admission limit sheds excess load with 429 before
//     any work is queued. The Retry-After hint on 429s and 503s is
//     adaptive: (slot waiters per slot + 1) times the observed mean
//     compute time, not a constant.
//
// Robustness: every request runs under a context — the client's
// (r.Context(), so a disconnected client cancels its own compute),
// capped by Config.RequestTimeout, and linked to the server lifetime
// (Close cancels everything in flight). The engines check that context
// at amortized checkpoints and return typed sentinels that map to 503
// with machine-readable metadata ("reason":"canceled"/"deadline").
// Requests whose deadline cannot fit the estimator they asked for are
// gracefully degraded to a cheaper estimator instead (degrade.go).
//
// Responses are pure functions of the request body (sweeps are seeded),
// so they are byte-identical across worker counts and cache states —
// the determinism tests enforce this. Degraded responses are flagged
// and never cached.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rlckit"
	"rlckit/internal/cache"
	"rlckit/internal/cancel"
	"rlckit/internal/faultinject"
	"rlckit/internal/store"
)

// Config tunes a Server. The zero value serves with defaults.
type Config struct {
	// Workers bounds the compute slots of single-net requests and the
	// pool of server-side sweeps; <= 0 means GOMAXPROCS.
	Workers int
	// CacheEntries bounds the response cache; 0 means DefaultCacheEntries,
	// negative disables caching.
	CacheEntries int
	// MaxInFlight bounds concurrently admitted requests; excess get 429.
	// 0 means DefaultMaxInFlight, negative means unlimited.
	MaxInFlight int
	// RequestTimeout caps each request's compute budget; 0 means no
	// server-imposed cap (the client's own context still applies). A
	// request that exceeds it gets 503 with reason "deadline" — unless
	// graceful degradation found a cheaper estimator that fits.
	RequestTimeout time.Duration
	// SessionTTL evicts what-if sessions idle longer than this
	// (default DefaultSessionTTL; negative disables idle eviction).
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open what-if sessions (default
	// DefaultMaxSessions); opening past the bound evicts the
	// least-recently-used session.
	MaxSessions int
	// StoreDir, when non-empty, enables crash-safe persistence
	// (internal/store) rooted at that directory: the response cache and
	// certified reduced-model pencils are snapshotted there periodically
	// and reloaded on the next New — before the caller opens a listener
	// — and every session open/edit/close is journaled so live what-if
	// sessions are rebuilt by replay. Empty disables persistence.
	StoreDir string
	// SnapshotInterval is the period of the background snapshot loop
	// (default DefaultSnapshotInterval; negative disables the loop —
	// a snapshot is still taken on Close). Ignored without StoreDir.
	SnapshotInterval time.Duration
	// JournalSync fsyncs the session journal on every append. Off, the
	// journal still survives a process crash (the page cache persists);
	// only a machine crash can lose the tail. Ignored without StoreDir.
	JournalSync bool
}

// Serving defaults.
const (
	DefaultCacheEntries     = 4096
	DefaultMaxInFlight      = 256
	DefaultSessionTTL       = 5 * time.Minute
	DefaultMaxSessions      = 64
	DefaultSnapshotInterval = 30 * time.Second
)

// Stats is a point-in-time snapshot of the server's counters, exported
// by cmd/rlckitd through expvar.
type Stats struct {
	// Requests counts admitted requests per endpoint.
	Requests map[string]uint64 `json:"requests"`
	// Rejected counts 429 admission rejections; Errors counts non-2xx
	// responses other than 429 and cancellation 503s.
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`
	// Canceled and Deadline count requests abandoned by their client
	// and requests that ran out of compute budget; both map to 503.
	Canceled uint64 `json:"canceled"`
	Deadline uint64 `json:"deadline"`
	// Degraded counts responses served with a cheaper estimator than
	// requested to meet a deadline (see degrade.go).
	Degraded uint64 `json:"degraded"`
	// CachePoisoned counts cache hits whose body failed its integrity
	// checksum and were recomputed instead of served.
	CachePoisoned uint64 `json:"cache_poisoned"`
	// Batches and Batched both count started single-net computes, so
	// Batched/Batches is exactly 1 (the fields keep their names for the
	// tools that read them). BatchSkipped counts requests whose context
	// fired while they waited for a compute slot; their compute never
	// ran.
	Batches      uint64 `json:"batches"`
	Batched      uint64 `json:"batched"`
	BatchSkipped uint64 `json:"batch_skipped"`
	// MORHits and MORFallbacks count method:"reduced" computations
	// answered by a certified reduced-order model vs by the exact
	// engine after a failed certification (cache hits touch neither).
	MORHits      uint64 `json:"mor_hits"`
	MORFallbacks uint64 `json:"mor_fallbacks"`
	// SessionsOpen is the current number of what-if sessions;
	// SessionsOpened counts opens, SessionsEvicted TTL/capacity
	// evictions (explicit DELETEs are not evictions), and SessionEdits
	// individual edits applied across all sessions.
	SessionsOpen    int    `json:"sessions_open"`
	SessionsOpened  uint64 `json:"sessions_opened"`
	SessionsEvicted uint64 `json:"sessions_evicted"`
	SessionEdits    uint64 `json:"session_edits"`
	// WarmHits counts cache hits served from entries recovered off disk
	// (never recomputed this process); StoreRecovered counts records —
	// cache entries, pencils, session journal records — successfully
	// restored at boot; StoreDiscardedCorrupt counts records the store
	// or the serving layer refused to restore (CRC failures, torn
	// frames, stale versions, undecodable keys). A discarded record is
	// recomputed on demand, never served.
	WarmHits              uint64 `json:"warm_hits"`
	StoreRecovered        uint64 `json:"store_recovered"`
	StoreDiscardedCorrupt uint64 `json:"store_discarded_corrupt"`
	// PencilHits and PencilBuilds count reduced-model pencil store
	// lookups that hit vs fresh Arnoldi builds (a hit skips the build
	// entirely; a fingerprint mismatch degrades to a build).
	PencilHits   uint64 `json:"pencil_hits"`
	PencilBuilds uint64 `json:"pencil_builds"`
	// Cache is the response cache's hit/miss/eviction snapshot.
	Cache cache.Stats `json:"cache"`
}

var endpointNames = [...]string{kindDelay: "delay", kindScreen: "screen", kindRepeaters: "repeaters", kindSweep: "sweep", kindTree: "tree", kindSession: "session", kindSessionEdit: "session_edit"}

// cacheEntry is a stored response body plus its integrity checksum,
// computed at store time and re-verified on every hit. warm marks an
// entry recovered from the on-disk store rather than computed by this
// process (the body bytes are identical either way — the warm-start
// tests assert it).
type cacheEntry struct {
	body []byte
	sum  uint64
	warm bool
}

// cacheHashSeed keys the body checksums; per-process is enough (the
// cache never outlives the process).
var cacheHashSeed = maphash.MakeSeed()

// errPanic marks a compute panic converted to an error: a server-side
// fault (500), unlike the request-physics rejections that map to 400.
var errPanic = errors.New("internal error")

// errClosed is returned by compute once the server is closed.
var errClosed = errors.New("serve: server closed")

// Server owns the serving state: cache, compute slots, admission
// tokens and the HTTP mux. Create with New, release with Close.
type Server struct {
	cfg       Config
	cache     *cache.Cache[cacheKey, cacheEntry]
	slots     chan struct{} // one token per running single-net compute
	sem       chan struct{}
	mux       *http.ServeMux
	baseCtx   context.Context
	baseStop  context.CancelFunc
	closeOnce sync.Once

	requests     [len(endpointNames)]atomic.Uint64
	rejected     atomic.Uint64
	errors       atomic.Uint64
	canceled     atomic.Uint64
	deadlines    atomic.Uint64
	degraded     atomic.Uint64
	poisoned     atomic.Uint64
	morHits      atomic.Uint64
	morFallbacks atomic.Uint64

	// Compute-slot counters (compute): computes started, requests that
	// gave up while waiting for a slot, current slot waiters, and an
	// EWMA (α = ¼) of one compute's wall time for the Retry-After hint.
	started      atomic.Uint64
	skipped      atomic.Uint64
	waiting      atomic.Int64
	computeNanos atomic.Int64

	// Persistence (persist.go). store is nil without Config.StoreDir;
	// pencils is always live (in-memory reduced-model reuse works with
	// or without a disk behind it). persistMu serializes every journal
	// write and the snapshot/compaction cycle; it is never acquired
	// while holding sessMu.
	store          *store.Store
	pencils        *pencilStore
	persistMu      sync.Mutex
	snapStop       chan struct{}
	snapDone       chan struct{}
	warmHits       atomic.Uint64
	storeRecovered atomic.Uint64
	storeDiscarded atomic.Uint64

	// What-if session registry (session.go).
	sessMu       sync.Mutex
	sessions     map[string]*liveSession
	sessSeq      uint64
	sessOpened   atomic.Uint64
	sessEvicted  atomic.Uint64
	sessionEdits atomic.Uint64
}

// New builds a Server from cfg. With Config.StoreDir set it also opens
// the crash-safe store, recovers the previous process's cache entries,
// pencils and live sessions — all before returning, so by the time the
// caller opens a listener every warm answer is already servable — and
// starts the periodic snapshot loop. Recovery never fails the boot:
// corrupt or stale records are counted and dropped (a truly unusable
// store directory is the one error returned).
func New(cfg Config) (*Server, error) {
	s := &Server{cfg: cfg, pencils: newPencilStore()}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	if cfg.CacheEntries >= 0 {
		n := cfg.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		s.cache = cache.New[cacheKey, cacheEntry](n)
	}
	inflight := cfg.MaxInFlight
	if inflight == 0 {
		inflight = DefaultMaxInFlight
	}
	if inflight > 0 {
		s.sem = make(chan struct{}, inflight)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.slots = make(chan struct{}, workers)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/delay", s.endpoint(kindDelay, s.handleDelay))
	s.mux.HandleFunc("POST /v1/screen", s.endpoint(kindScreen, s.handleScreen))
	s.mux.HandleFunc("POST /v1/repeaters", s.endpoint(kindRepeaters, s.handleRepeaters))
	s.mux.HandleFunc("POST /v1/sweep", s.endpoint(kindSweep, s.handleSweep))
	s.mux.HandleFunc("POST /v1/tree", s.endpoint(kindTree, s.handleTree))
	s.sessions = make(map[string]*liveSession)
	s.mux.HandleFunc("POST /v1/session", s.endpoint(kindSession, s.handleSessionOpen))
	s.mux.HandleFunc("POST /v1/session/{id}/edit", s.endpoint(kindSessionEdit, s.handleSessionEdit))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.endpoint(kindSession, s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"version\":%q}\n", rlckit.Version)
	})
	if cfg.StoreDir != "" {
		if err := s.openStore(); err != nil {
			s.baseStop()
			return nil, err
		}
	}
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the server's compute: every in-flight request's context
// is canceled (engines return at their next checkpoint, handlers
// answer 503) and requests waiting for a compute slot, or arriving
// later, are refused with 503 "shutdown". Close returns without
// waiting for the HTTP connections themselves — that is the
// http.Server's shutdown to drive. Close is idempotent: a daemon's
// deferred cleanup may race its shutdown path's explicit call.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.baseStop()
		if s.store != nil {
			// Stop the snapshot loop, then take a final snapshot while the
			// sessions are still live so a graceful restart recovers them.
			close(s.snapStop)
			<-s.snapDone
			_ = s.snapshotNow()
		}
		s.closeSessions()
		if s.store != nil {
			_ = s.store.Close()
		}
	})
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:      make(map[string]uint64, len(endpointNames)),
		Rejected:      s.rejected.Load(),
		Errors:        s.errors.Load(),
		Canceled:      s.canceled.Load(),
		Deadline:      s.deadlines.Load(),
		Degraded:      s.degraded.Load(),
		CachePoisoned: s.poisoned.Load(),
		Batches:       s.started.Load(),
		Batched:       s.started.Load(),
		BatchSkipped:  s.skipped.Load(),
		MORHits:       s.morHits.Load(),
		MORFallbacks:  s.morFallbacks.Load(),
	}
	st.SessionsOpen = s.sessionCount()
	st.SessionsOpened = s.sessOpened.Load()
	st.SessionsEvicted = s.sessEvicted.Load()
	st.SessionEdits = s.sessionEdits.Load()
	st.WarmHits = s.warmHits.Load()
	st.StoreRecovered = s.storeRecovered.Load()
	st.StoreDiscardedCorrupt = s.storeDiscarded.Load()
	if s.store != nil {
		sst := s.store.Stats()
		st.StoreDiscardedCorrupt += uint64(sst.Corrupt + sst.Stale)
	}
	st.PencilHits = s.pencils.lru.Stats().Hits
	st.PencilBuilds = s.pencils.builds.Load()
	for k, name := range endpointNames {
		st.Requests[name] = s.requests[k].Load()
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}

// retryAfterSecs is the adaptive Retry-After hint: how long until the
// current slot waiters have likely been served, from the waiters per
// slot and the observed mean compute time, clamped to [1, 30] seconds.
func (s *Server) retryAfterSecs() int {
	ew := s.computeNanos.Load()
	if ew <= 0 {
		return 1
	}
	rounds := float64(s.waiting.Load())/float64(cap(s.slots)) + 1
	secs := int(math.Ceil(rounds * float64(ew) / 1e9))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// endpoint wraps a handler with admission control and request
// counting.
func (s *Server) endpoint(kind uint8, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.rejected.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
				s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("server at max in-flight requests"))
				return
			}
		}
		s.requests[kind].Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(w, r)
	}
}

// computeCtx derives the compute context for a cache miss: the
// client's context capped by RequestTimeout and linked to the server
// lifetime, so a disconnected client, an expired budget or a server
// Close all cancel the same context the engines poll. It is built only
// on the miss path — a cache hit never pays for the context plumbing,
// and the RequestTimeout budget covers compute, not request parsing.
// The release func must be called when the handler is done.
func (s *Server) computeCtx(r *http.Request) (context.Context, func()) {
	ctx := r.Context()
	var stop context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		ctx, stop = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	} else {
		ctx, stop = context.WithCancel(ctx)
	}
	unlink := context.AfterFunc(s.baseCtx, stop)
	return ctx, func() { unlink(); stop() }
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status != http.StatusTooManyRequests {
		s.errors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(ErrorResponse{Error: err.Error()})
	w.Write(append(body, '\n'))
}

// writeUnavailable writes a 503 with machine-readable metadata: the
// reason ("canceled", "deadline", "shutdown") and the adaptive retry
// hint, in both the header and the body.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error, reason string) {
	retry := s.retryAfterSecs()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	body, _ := json.Marshal(ErrorResponse{Error: err.Error(), Reason: reason, RetryAfterS: retry})
	w.Write(append(body, '\n'))
}

// failCompute maps a compute error to its HTTP response: server
// shutdown and cancellation to 503 (with metadata and counters),
// panics and injected faults to 500, everything else — rejections of
// the request's physics — to 400.
func (s *Server) failCompute(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errClosed):
		s.writeUnavailable(w, err, "shutdown")
	case errors.Is(err, errPanic), faultinject.IsFault(err):
		s.writeError(w, http.StatusInternalServerError, err)
	case cancel.Is(err):
		reason := "canceled"
		if errors.Is(err, cancel.ErrDeadline) {
			reason = "deadline"
			s.deadlines.Add(1)
		} else {
			s.canceled.Add(1)
		}
		s.writeUnavailable(w, err, reason)
	default:
		s.writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(body)
}

// cached looks up key, returning (body, true) on a hit whose body
// passes its integrity checksum. A checksum mismatch — memory
// corruption, or the faultinject cache site in the chaos tests — is
// counted and reported as a miss, so a poisoned entry is recomputed
// and overwritten, never served.
func (s *Server) cached(key cacheKey) ([]byte, bool) {
	if s.cache == nil {
		return nil, false
	}
	e, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	if maphash.Bytes(cacheHashSeed, e.body) != e.sum {
		s.poisoned.Add(1)
		return nil, false
	}
	if e.warm {
		s.warmHits.Add(1)
	}
	return e.body, true
}

func (s *Server) cachePut(key cacheKey, body []byte) {
	if s.cache == nil {
		return
	}
	sum := maphash.Bytes(cacheHashSeed, body)
	if faultinject.Active && faultinject.Corrupt(faultinject.SiteCache) {
		// Store a bit-flipped copy against the honest checksum: the next
		// hit must detect and recompute.
		poisoned := append([]byte(nil), body...)
		poisoned[len(poisoned)/2] ^= 0x40
		body = poisoned
	}
	s.cache.Put(key, cacheEntry{body: body, sum: sum})
}

// compute runs fn on the calling goroutine once it holds a compute
// slot, so at most Workers single-net computes run at once, converting
// fn's panics into errPanic so a bad corner of the math never kills
// the daemon.
func (s *Server) compute(ctx context.Context, fn func() error) (err error) {
	if err := s.acquireSlot(ctx); err != nil {
		return err
	}
	s.started.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errPanic, r)
		}
		s.recordCompute(time.Since(start))
		<-s.slots
	}()
	faultinject.Panic(faultinject.SiteBatch)
	return fn()
}

// acquireSlot takes a compute slot, waiting while all are busy. A
// closed server refuses with errClosed, before and during the wait; a
// ctx (which may be nil) that fires during the wait returns its typed
// cancel error, counted in Stats.BatchSkipped.
func (s *Server) acquireSlot(ctx context.Context) error {
	closed := s.baseCtx.Done()
	select {
	case <-closed:
		return errClosed
	default:
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-closed:
		return errClosed
	case <-ctxDone:
		// Close also cancels every compute context: report it as the
		// shutdown it is.
		if s.baseCtx.Err() != nil {
			return errClosed
		}
		s.skipped.Add(1)
		return cancel.Check(ctx)
	}
}

// recordCompute folds one compute's wall time into the Retry-After
// EWMA (α = ¼). Computes finish concurrently, so the update is a
// CompareAndSwap loop.
func (s *Server) recordCompute(d time.Duration) {
	for {
		old := s.computeNanos.Load()
		ew := d.Nanoseconds()
		if old != 0 {
			ew = old + (ew-old)/4
		}
		if s.computeNanos.CompareAndSwap(old, ew) {
			return
		}
	}
}

// finish is the shared tail of every miss path: marshal the response
// value, cache the body under its canonical key (unless the response
// is degraded — store=false), send it.
func (s *Server) finish(w http.ResponseWriter, key cacheKey, resp any, store bool) {
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n')
	if store {
		s.cachePut(key, body)
	}
	s.writeJSON(w, body, false)
}

// respond handles the single-net miss path: run fn in a compute slot
// under the request context to produce a response value, then finish.
// fn's second return reports whether the response is cacheable (a
// degraded response is not).
func respond[T any](s *Server, w http.ResponseWriter, ctx context.Context, key cacheKey, fn func() (T, bool, error)) {
	var resp T
	store := true
	err := s.compute(ctx, func() error {
		var ferr error
		resp, store, ferr = fn()
		return ferr
	})
	if err != nil {
		s.failCompute(w, err)
		return
	}
	s.finish(w, key, resp, store)
}

func (s *Server) handleDelay(w http.ResponseWriter, r *http.Request) {
	key, err := parseDelayRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cached(key); ok {
		s.writeJSON(w, body, true)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	ln, drv := key.line, key.drive
	respond(s, w, ctx, key, func() (DelayResponse, bool, error) {
		var resp DelayResponse
		p, err := rlckit.Analyze(ln, drv)
		if err != nil {
			return resp, true, err
		}
		resp.RT, resp.CT, resp.Zeta, resp.OmegaN = p.RT, p.CT, p.Zeta, p.OmegaN
		switch key.method {
		case methodEq9:
			resp.DelayS, err = rlckit.Delay(ln, drv)
			resp.Method = "eq9"
		case methodExact:
			resp.DelayS, err = rlckit.DelaySimulated(ln, drv)
			resp.Method = "exact"
		case methodReduced:
			var info rlckit.MORInfo
			resp.DelayS, info, err = rlckit.DelayReducedCtx(ctx, ln, drv)
			if err == nil {
				resp.Method = "reduced"
				resp.MORQ, resp.MORN, resp.MORErrPct = info.Q, info.N, info.EstErrPct
				s.morHits.Add(1)
			} else if cancel.Is(err) || faultinject.IsFault(err) {
				// A canceled build is not a certification failure: do not
				// burn the remaining budget on the exact engine. Injected
				// faults propagate too (500, retried by the client) so the
				// retry's answer is byte-identical to a fault-free one.
				return resp, true, err
			} else {
				// Exact-fallback contract: certification failure is an
				// engine-selection event, not a request error.
				resp.DelayS, err = rlckit.DelaySimulated(ln, drv)
				resp.Method = "exact"
				resp.MORFallback = true
				s.morFallbacks.Add(1)
			}
		default:
			var eq9 bool
			resp.DelayS, eq9, err = rlckit.DelayAuto(ln, drv)
			resp.Method = "exact"
			if eq9 {
				resp.Method = "eq9"
			}
		}
		if err != nil {
			return resp, true, err
		}
		resp.DelayRCS = rlckit.DelayRCOnly(ln, drv)
		resp.RCErrPct = 100 * (resp.DelayRCS - resp.DelayS) / resp.DelayS
		return resp, true, nil
	})
}

func (s *Server) handleScreen(w http.ResponseWriter, r *http.Request) {
	key, err := parseScreenRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cached(key); ok {
		s.writeJSON(w, body, true)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	ln, drv, rise := key.line, key.drive, key.rise
	respond(s, w, ctx, key, func() (ScreenResponse, bool, error) {
		res, err := rlckit.NeedsInductance(ln, drv, rise)
		if err != nil {
			return ScreenResponse{}, true, err
		}
		return ScreenResponse{
			NeedsRLC: res.NeedsRLC, InWindow: res.InWindow, Underdamped: res.Underdamped,
			LMinM: res.LMin, LMaxM: res.LMax, Zeta: res.Zeta,
		}, true, nil
	})
}

func (s *Server) handleRepeaters(w http.ResponseWriter, r *http.Request) {
	key, err := parseRepeatersRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cached(key); ok {
		s.writeJSON(w, body, true)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	ln, buf := key.line, key.buffer
	rc := key.method == 1
	respond(s, w, ctx, key, func() (RepeatersResponse, bool, error) {
		var plan rlckit.RepeaterPlan
		var err error
		model := "rlc"
		if rc {
			plan, err = rlckit.DesignRepeatersRC(ln, buf)
			model = "rc"
		} else {
			plan, err = rlckit.DesignRepeaters(ln, buf)
		}
		if err != nil {
			return RepeatersResponse{}, true, err
		}
		return RepeatersResponse{
			Model: model, H: plan.H, K: plan.K, KInt: plan.KInt, HForKInt: plan.HForKInt,
			TLR: plan.TLR, TotalDelayS: plan.TotalDelay, TotalDelayInt: plan.TotalDelayInt,
			Area: plan.Area, AreaInt: plan.AreaInt, SwitchEnergyJ: plan.SwitchEnergy,
		}, true, nil
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, key, corners, err := parseSweepRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cached(key); ok {
		s.writeJSON(w, body, true)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	// Deadline-aware degradation: pick the estimator the remaining
	// budget can afford (the requested one when it fits).
	totalSamples := req.Nets * len(corners) * key.samples
	est, reason := degradeSweep(ctx, rlckit.SweepEstimator(key.method), totalSamples, s.cfg.Workers)
	// Sweeps parallelize internally on a pool of the same size; they
	// skip the compute slots but still hold an admission token.
	resp, err := s.runSweep(ctx, req, est, corners)
	if err != nil {
		s.failCompute(w, err)
		return
	}
	if reason != "" {
		resp.Degraded = true
		resp.DegradeReason = reason
		s.degraded.Add(1)
	}
	s.finish(w, key, resp, reason == "")
}

func (s *Server) runSweep(ctx context.Context, req SweepRequest, est rlckit.SweepEstimator, corners []rlckit.SweepCorner) (SweepResponse, error) {
	var resp SweepResponse
	node, err := rlckit.Technology(req.Node)
	if err != nil {
		return resp, err
	}
	nets, err := rlckit.RandomNets(req.Seed, node, req.Nets)
	if err != nil {
		return resp, err
	}
	cfg := rlckit.SweepConfig{
		RiseTime: req.RiseS,
		Corners:  corners,
		MC: rlckit.SweepMonteCarlo{
			Samples: req.Samples, Seed: req.Seed,
			RSigma: req.Sigma, LSigma: req.Sigma, CSigma: req.Sigma,
			DriveSigma: req.DriveSigma,
		},
		Workers:   s.cfg.Workers,
		Estimator: est,
		Ctx:       ctx,
	}
	if req.Repeaters {
		b := node.Buffer()
		cfg.Buffer = &b
	}
	res, err := rlckit.SweepDelays(nets, cfg)
	if err != nil {
		return resp, err
	}
	resp = SweepResponse{
		Nets:  len(res.NetNames),
		Draws: res.Draws, Samples: len(res.Samples),
		Estimator: est.String(),
		Screen:    screenStatsJSON(res.Screen),
		Delay:     summaryJSON(res.Delay), DelayRC: summaryJSON(res.DelayRC),
		RCErr: summaryJSON(res.RCErr), AbsRCErr: summaryJSON(res.AbsRCErr),
		FracErrOver10: res.FracErrOver10, FracErrOver20: res.FracErrOver20,
	}
	for _, c := range res.Corners {
		resp.Corners = append(resp.Corners, c.Name)
	}
	if res.RepKRatio.N > 0 {
		kr, di := summaryJSON(res.RepKRatio), summaryJSON(res.RepDelayInc)
		resp.RepKRatio, resp.RepDelayInc = &kr, &di
	}
	for _, cs := range res.PerCorner {
		resp.PerCorner = append(resp.PerCorner, SweepCornerJSON{
			Name:   cs.Corner.Name,
			Screen: screenStatsJSON(cs.Screen),
			Delay:  summaryJSON(cs.Delay),
			RCErr:  summaryJSON(cs.RCErr),
		})
	}
	return resp, nil
}

func screenStatsJSON(st rlckit.ScreenStats) ScreenStatsJSON {
	return ScreenStatsJSON{
		Total: st.Total, NeedsRLC: st.NeedsRLC, InWindow: st.InWindow,
		Underdamped: st.Underdamped, FracRLC: st.FractionRLC(),
	}
}
