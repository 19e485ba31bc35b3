// Command rlckitd serves rlckit's interconnect analysis over HTTP: the
// paper as a design-time service. It answers delay, inductance
// screening, repeater sizing and Monte Carlo population questions as
// JSON POST endpoints, with a canonical-key response cache, compute
// bounded to a worker count of slots, and 429 backpressure when the
// in-flight limit is reached.
//
//	rlckitd -addr :8080 -cache 8192 -max-inflight 512 -workers 8
//
// Endpoints:
//
//	POST /v1/delay      {"line":{"rt":..,"lt":..,"ct":..,"length":..},"drive":{"rtr":..,"cl":..}}
//	POST /v1/screen     ... + "rise_s"
//	POST /v1/repeaters  ... + "node" or "buffer", optional "model":"rc"
//	POST /v1/sweep      {"node":..,"nets":..,"seed":..,"rise_s":..,...}
//	POST /v1/tree       {"tree":{"root_c":..,"branches":[..],"sinks":[..]},"drive":{"rtr":..}}
//	POST /v1/session            open a what-if session over a tree (same body as /v1/tree)
//	POST /v1/session/{id}/edit  {"edits":[{"op":"branch",..},..]} -> re-analyzed result
//	DELETE /v1/session/{id}     close a session early
//	GET  /healthz       liveness + version
//	GET  /debug/vars    expvar metrics (rlckitd map: requests, cache, computes,
//	                    reduced-order mor_hits/mor_fallbacks)
//
// -pprof addr starts a net/http/pprof side listener (separate from the
// service port, so profiling endpoints are never exposed on the
// service address by accident).
//
// -store-dir enables crash-safe persistence: the response cache and
// certified reduced-order pencils are snapshotted there (checksummed,
// atomically replaced) every -snapshot-interval, and every what-if
// session open/edit/close is appended to a journal so open sessions
// survive a crash by replay. Recovery runs before the listener opens;
// corrupt or torn records are discarded (counted in expvar as
// store_discarded_corrupt), never served. -journal-sync trades edit
// latency for an fsync per applied batch.
//
// The server shuts down gracefully on SIGINT/SIGTERM: listeners close,
// in-flight requests get -grace to finish, then the process exits.
// Requests still computing when -grace expires are canceled at their
// next engine checkpoint and answered 503 "shutdown", so termination
// is bounded by grace plus a short drain rather than the longest
// running request. -request-timeout additionally caps each request's
// compute budget up front; requests that cannot finish in time are
// degraded to a cheaper estimator when possible (see internal/serve).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers on the -pprof side listener
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rlckit"
	"rlckit/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheSize   = flag.Int("cache", serve.DefaultCacheEntries, "response cache entries (negative disables)")
		maxInflight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "max concurrently admitted requests; excess get 429 (negative = unlimited)")
		workers     = flag.Int("workers", 0, "max concurrent single-net computes, and the pool size of each sweep (0 = GOMAXPROCS)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request compute budget; over-budget requests get 503 or a degraded answer (0 = uncapped)")
		sessionTTL  = flag.Duration("session-ttl", serve.DefaultSessionTTL, "what-if session idle TTL before eviction (0 = never evict on idle)")
		maxSessions = flag.Int("max-sessions", serve.DefaultMaxSessions, "max live what-if sessions; opening past the cap evicts the least recently used")
		storeDir    = flag.String("store-dir", "", "persistence directory: warm-start snapshots + session journal (empty = in-memory only)")
		snapEvery   = flag.Duration("snapshot-interval", serve.DefaultSnapshotInterval, "background snapshot cadence when -store-dir is set (negative = only on shutdown)")
		journalSync = flag.Bool("journal-sync", false, "fsync the session journal after every applied edit batch (durability over latency)")
		grace       = flag.Duration("grace", 10*time.Second, "graceful shutdown timeout")
		pprofAddr   = flag.String("pprof", "", "net/http/pprof side-listener address (empty = disabled)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		usageErr("unexpected argument %q", flag.Arg(0))
	}
	// Nonsensical flag values are usage errors (exit 2), caught before
	// any listener opens — matching the netsweep/treeskew convention.
	if *sessionTTL < 0 {
		usageErr("-session-ttl must not be negative (use 0 to disable idle eviction)")
	}
	if *maxSessions <= 0 {
		usageErr("-max-sessions must be positive, got %d", *maxSessions)
	}
	if *storeDir != "" {
		if err := probeStoreDir(*storeDir); err != nil {
			usageErr("-store-dir: %v", err)
		}
	}
	ttl := *sessionTTL
	if ttl == 0 {
		ttl = -1 // serve.Config: negative disables idle eviction
	}
	if err := run(*addr, *pprofAddr, serve.Config{
		Workers:          *workers,
		CacheEntries:     *cacheSize,
		MaxInFlight:      *maxInflight,
		RequestTimeout:   *reqTimeout,
		SessionTTL:       ttl,
		MaxSessions:      *maxSessions,
		StoreDir:         *storeDir,
		SnapshotInterval: *snapEvery,
		JournalSync:      *journalSync,
	}, *grace, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "rlckitd:", err)
		os.Exit(1)
	}
}

// usageErr reports a flag-validation failure and exits 2, the
// usage-error convention shared by the repo's CLIs.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rlckitd: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'rlckitd -h' for usage")
	os.Exit(2)
}

// probeStoreDir verifies the persistence directory can be created and
// written before the server boots, so a typo'd or read-only -store-dir
// is a usage error up front rather than a runtime failure mid-snapshot.
func probeStoreDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// current points expvar at the active server: registration must happen
// once (expvar panics on duplicate names) but run can be re-entered by
// tests, so the registered Func dereferences this pointer instead of
// capturing the first run's server.
var (
	current     atomic.Pointer[serve.Server]
	publishOnce sync.Once
)

// run builds the server, publishes metrics, and serves until a
// termination signal arrives. If ready (or pprofReady) is non-nil it
// receives the bound listener address once that listener is accepting
// connections (used by tests to serve on port 0).
func run(addr, pprofAddr string, cfg serve.Config, grace time.Duration, ready, pprofReady chan<- net.Addr) error {
	s, err := serve.New(cfg)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer s.Close()
	current.Store(s)

	if pprofAddr != "" {
		pln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		// http.DefaultServeMux carries the net/http/pprof handlers (and
		// expvar's /debug/vars).
		go func() {
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("rlckitd: pprof listener: %v", err)
			}
		}()
		log.Printf("rlckitd: pprof listening on %s", pln.Addr())
		if pprofReady != nil {
			pprofReady <- pln.Addr()
		}
	}

	publishOnce.Do(func() {
		expvar.Publish("rlckitd", expvar.Func(func() any { return current.Load().Stats() }))
		expvar.NewString("rlckitd.version").Set(rlckit.Version)
	})

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Catch the termination signals before announcing readiness: a
	// SIGTERM that lands in between would otherwise kill the process
	// without a graceful drain.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("rlckitd %s listening on %s (workers=%d cache=%d max-inflight=%d)",
		rlckit.Version, ln.Addr(), cfg.Workers, cfg.CacheEntries, cfg.MaxInFlight)
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case sig := <-sigCh:
		log.Printf("rlckitd: %v, shutting down", sig)
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Grace expired with requests still computing. Cancel the
		// server's base context so every in-flight compute bails out at
		// its next engine checkpoint (answering 503 "shutdown"), then
		// give the connections a short second drain to flush those
		// responses instead of abandoning the process to a hang.
		log.Printf("rlckitd: grace %s expired (%v), canceling in-flight compute", grace, err)
		s.Close()
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel2()
		if err := srv.Shutdown(ctx2); err != nil {
			return fmt.Errorf("shutdown after cancel: %w", err)
		}
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Print("rlckitd: drained, bye")
	return nil
}
