// Package faultinject provides seeded, deterministic failpoints for
// chaos testing the serve/engine stack.
//
// Production builds pay nothing: without the `faultinject` build tag,
// Active is the constant false and every hook is an empty inlinable
// no-op, so the tagged call sites (band- and tree-LU factorization,
// pool workers, the serve compute and response cache) compile to dead
// code. Test builds enable the hooks with
//
//	go test -tags faultinject ...
//
// and arm them either programmatically (Configure) or via the
// environment: FAULTINJECT_RATES="numeric.factor=0.01,pool.worker=0.05",
// FAULTINJECT_SEED=7, FAULTINJECT_SLEEP=2ms.
//
// Determinism: each site keeps an atomic hit counter, and the fire
// decision for hit n is a pure hash of (seed, site, n). For a fixed
// seed and rate the set of firing ordinals at a site is therefore
// reproducible across runs — concurrency may reorder which goroutine
// draws which ordinal, but never how many faults fire or where in the
// site's hit sequence they land.
package faultinject

import "errors"

// Failpoint sites tagged in the codebase.
const (
	// SiteFactor simulates a numeric factorization failure inside
	// numeric.FactorBandLU and numeric.FactorTreeLU (surfaces as a
	// retryable engine error).
	SiteFactor = "numeric.factor"
	// SitePoolWorker delays a pool worker between claimed indices.
	SitePoolWorker = "pool.worker"
	// SiteBatch panics inside a single-net serve compute, after it took
	// its compute slot (compute's recover converts it to a 500).
	SiteBatch = "serve.batch"
	// SiteCache corrupts a response-cache entry as it is stored (the
	// integrity checksum detects it on the next hit).
	SiteCache = "serve.cache"
	// SiteSession panics inside a what-if session compute (the
	// handler's recover converts it to a 500; the session survives).
	SiteSession = "serve.session"
	// SiteStoreWrite injects a write error inside internal/store's
	// snapshot and journal writers (surfaces as a persistence error
	// counter; serving is unaffected).
	SiteStoreWrite = "store.write"
	// SiteStoreShort makes one store write short: only a prefix of the
	// record reaches the file before the error returns — a full disk
	// mid-record. The torn bytes must be discarded on the next load.
	SiteStoreShort = "store.short"
	// SiteStoreSync injects an fsync error inside internal/store
	// (durability degraded, correctness preserved).
	SiteStoreSync = "store.sync"
)

// Crash sites, armed via Config.CrashAt / FAULTINJECT_CRASH rather
// than rates: at the armed ordinal the process writes a torn prefix of
// the in-flight record and SIGKILLs itself — the closest a test can
// get to a power cut mid-write. internal/chaos's crash harness runs a
// real rlckitd child into each of these and asserts recovery.
const (
	// SiteCrashJournal dies mid journal append (torn frame on disk).
	SiteCrashJournal = "store.crash.journal"
	// SiteCrashSnapshot dies mid snapshot record write (torn temp file;
	// the previous snapshot must survive the crash untouched).
	SiteCrashSnapshot = "store.crash.snapshot"
	// SiteCrashRename dies after the snapshot temp file is complete but
	// before the atomic rename installs it.
	SiteCrashRename = "store.crash.rename"
	// SiteCrashRewrite dies mid journal compaction rewrite.
	SiteCrashRewrite = "store.crash.rewrite"
)

// ErrFault is the sentinel wrapped by every injected error, so layers
// above can classify a failure as injected (and map it to a retryable
// status) via IsFault.
var ErrFault = errors.New("faultinject: injected fault")

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool {
	return Active && errors.Is(err, ErrFault)
}

// Config arms the failpoints (only effective under the faultinject
// build tag).
type Config struct {
	// Seed drives the per-site fire decisions; 0 means 1.
	Seed int64
	// Rates maps site name to fire probability in [0, 1].
	Rates map[string]float64
	// SleepFor is the delay injected by Sleep sites; 0 means 2ms.
	SleepFor int64 // nanoseconds
	// CrashAt arms crash sites: the site's Nth Crashpoint hit (1-based)
	// SIGKILLs the process. Environment form:
	// FAULTINJECT_CRASH="store.crash.journal=2".
	CrashAt map[string]uint64
}
