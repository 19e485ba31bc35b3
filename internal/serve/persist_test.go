package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rlckit"
)

// This file tests the crash-safe persistence layer (persist.go): the
// cacheKey codec, warm-start byte-identity, session journal replay,
// journal compaction, and the corruption policy (discarded and
// counted, never served). The kill-mid-write crash harness that SIGKILLs
// a real rlckitd child lives in internal/chaos.

// storeConfig is the base config for persistence tests: a store
// directory, no periodic loop (snapshots are taken explicitly or on
// Close), and no admission variance.
func storeConfig(dir string) Config {
	return Config{StoreDir: dir, SnapshotInterval: -1}
}

// parseKeys runs every decoder over the shared request seeds and
// collects the canonical keys they accept — a cheap way to cover every
// kind and every populated field combination with real values.
func parseKeys(t *testing.T) []cacheKey {
	t.Helper()
	var keys []cacheKey
	for _, s := range requestSeeds {
		if k, err := parseDelayRequest(strings.NewReader(s)); err == nil {
			keys = append(keys, k)
		}
		if k, err := parseScreenRequest(strings.NewReader(s)); err == nil {
			keys = append(keys, k)
		}
		if k, err := parseRepeatersRequest(strings.NewReader(s)); err == nil {
			keys = append(keys, k)
		}
		if _, k, _, err := parseSweepRequest(strings.NewReader(s)); err == nil {
			keys = append(keys, k)
		}
		if _, _, k, err := parseTreeRequest(strings.NewReader(s)); err == nil {
			keys = append(keys, k)
		}
	}
	if len(keys) < 5 {
		t.Fatalf("only %d keys parsed from the seeds", len(keys))
	}
	return keys
}

// TestCacheKeyCodecRoundTrip: every canonical key the decoders accept
// must survive encode→decode exactly (the comparable struct is the
// cache identity — one changed bit is a different request).
func TestCacheKeyCodecRoundTrip(t *testing.T) {
	for i, k := range parseKeys(t) {
		enc := encodeCacheKey(&k)
		got, ok := decodeCacheKey(enc)
		if !ok {
			t.Fatalf("key %d: decode rejected its own encoding", i)
		}
		if got != k {
			t.Fatalf("key %d: round trip drifted:\n  in:  %+v\n  out: %+v", i, k, got)
		}
		// Trailing garbage must be rejected, not silently absorbed.
		if _, ok := decodeCacheKey(append(append([]byte(nil), enc...), 0)); ok {
			t.Fatalf("key %d: trailing byte accepted", i)
		}
		// Truncations must be rejected (never a panic).
		for cut := 0; cut < len(enc); cut += 7 {
			if _, ok := decodeCacheKey(enc[:cut]); ok {
				t.Fatalf("key %d: truncation to %d bytes accepted", i, cut)
			}
		}
	}
}

// TestEngineEnumValuesPinned: the cache key stores the facade's sweep
// estimator and tree engine values, and snapshot files persist those
// keys. A reordered enum must fail here instead of silently remapping
// stored keys to other estimators. It also pins the wire names and the
// unknown-name error messages.
func TestEngineEnumValuesPinned(t *testing.T) {
	for want, e := range sweepEstimators {
		if int(e) != want {
			t.Errorf("sweep estimator %s = %d, want %d", e, int(e), want)
		}
	}
	for want, e := range treeEngines {
		if int(e) != want {
			t.Errorf("tree engine %s = %d, want %d", e, int(e), want)
		}
	}
	for name, want := range map[string]rlckit.SweepEstimator{
		"": rlckit.SweepEstimatorClosed, "closed": rlckit.SweepEstimatorClosed,
		"smart": rlckit.SweepEstimatorSmart, "simulated": rlckit.SweepEstimatorSimulated,
		"reduced": rlckit.SweepEstimatorReduced,
	} {
		if got, err := parseEnum("estimator", name, sweepEstimators); err != nil || got != want {
			t.Errorf("estimator %q -> %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]rlckit.TreeEngine{
		"": rlckit.TreeEngineClosed, "closed": rlckit.TreeEngineClosed,
		"mna": rlckit.TreeEngineMNA, "reduced": rlckit.TreeEngineReduced,
	} {
		if got, err := parseEnum("engine", name, treeEngines); err != nil || got != want {
			t.Errorf("engine %q -> %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := parseEnum("estimator", "fast", sweepEstimators); err == nil ||
		err.Error() != `unknown estimator "fast" (have closed, smart, simulated, reduced)` {
		t.Errorf("unknown estimator error = %v", err)
	}
	if _, err := parseEnum("engine", "spice", treeEngines); err == nil ||
		err.Error() != `unknown engine "spice" (have closed, mna, reduced)` {
		t.Errorf("unknown engine error = %v", err)
	}
}

// postOK posts and requires a 200.
func postOK(t *testing.T, s *Server, path, body string) *string {
	t.Helper()
	rec := post(s.Handler(), path, body)
	if rec.Code != 200 {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	out := rec.Body.String()
	return &out
}

// TestWarmStartServesIdenticalBytes: entries snapshotted by one server
// must come back in the next as cache hits with byte-identical bodies,
// counted as warm hits and recovered records.
func TestWarmStartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()

	a := newTestServer(t, storeConfig(dir))
	cold1 := *postOK(t, a, "/v1/delay", delayBody)
	cold2 := *postOK(t, a, "/v1/tree", treeBody)
	a.Close() // final snapshot

	b := newTestServer(t, storeConfig(dir))
	if st := b.Stats(); st.StoreRecovered < 2 {
		t.Fatalf("store_recovered = %d after restart, want >= 2", st.StoreRecovered)
	}
	rec := post(b.Handler(), "/v1/delay", delayBody)
	if rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("warm /v1/delay missed the recovered cache")
	}
	if rec.Body.String() != cold1 {
		t.Fatalf("warm /v1/delay bytes differ from cold:\nwarm: %scold: %s", rec.Body.String(), cold1)
	}
	if warm2 := *postOK(t, b, "/v1/tree", treeBody); warm2 != cold2 {
		t.Fatalf("warm /v1/tree bytes differ from cold")
	}
	if st := b.Stats(); st.WarmHits < 2 {
		t.Fatalf("warm_hits = %d, want >= 2", st.WarmHits)
	}
}

// TestWarmStartAtLeast10xFaster: the acceptance floor for the store —
// a previously-cached expensive net must answer at least 10× faster
// warm than its cold compute.
func TestWarmStartAtLeast10xFaster(t *testing.T) {
	// A ~100-node balanced tree under the exact MNA engine: a few
	// milliseconds cold, microseconds from the cache.
	var b strings.Builder
	b.WriteString(`{"tree":{"root_c":5e-15,"branches":[`)
	n := 100
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"parent":%d,"r":20,"l":5e-10,"c":4e-14}`, (i-1)/2)
	}
	b.WriteString(`],"sinks":[`)
	first := true
	for i := n/2 + 1; i <= n; i++ {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `{"node":%d,"cl":2e-14}`, i)
	}
	b.WriteString(`]},"drive":{"rtr":80},"engine":"mna"}`)
	body := b.String()

	dir := t.TempDir()
	a := newTestServer(t, storeConfig(dir))
	cold := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		// Cold each round: a fresh key via a one-ulp drive change would
		// change the physics, so instead time the first (miss) request
		// only once per fresh server.
		s := newTestServer(t, Config{CacheEntries: -1})
		start := time.Now()
		postOK(t, s, "/v1/tree", body)
		if d := time.Since(start); d < cold {
			cold = d
		}
	}
	postOK(t, a, "/v1/tree", body)
	a.Close()

	w := newTestServer(t, storeConfig(dir))
	warm := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		rec := post(w.Handler(), "/v1/tree", body)
		if d := time.Since(start); d < warm {
			warm = d
		}
		if rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("round %d: warm request missed the recovered cache", i)
		}
	}
	if warm*10 > cold {
		t.Fatalf("warm start not >=10x faster: cold=%v warm=%v", cold, warm)
	}
	t.Logf("cold=%v warm=%v (%.0fx)", cold, warm, float64(cold)/float64(warm))
}

// TestSessionJournalRecovery: sessions must survive a restart by
// journal replay — the recovered session keeps its ID, and continuing
// it yields bytes identical to the same edit sequence on a server
// that never restarted.
func TestSessionJournalRecovery(t *testing.T) {
	batch2 := `{"edits":[{"op":"driver","rtr":65}]}`

	// Reference: open + batch1 + batch2 with no restart, no store.
	r := newTestServer(t, Config{})
	refOpen := openSession(t, r, treeBody)
	editSession(t, r, refOpen.SessionID, sessionEditBatch)
	want := editSession(t, r, refOpen.SessionID, batch2)

	dir := t.TempDir()
	a := newTestServer(t, storeConfig(dir))
	open := openSession(t, a, treeBody)
	if open.SessionID != refOpen.SessionID {
		t.Fatalf("session IDs diverge before restart: %s vs %s", open.SessionID, refOpen.SessionID)
	}
	editSession(t, a, open.SessionID, sessionEditBatch)
	a.Close()

	b := newTestServer(t, storeConfig(dir))
	if n := b.sessionCount(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	got := editSession(t, b, open.SessionID, batch2)
	if got.Gen != want.Gen {
		t.Fatalf("recovered gen %d, want %d", got.Gen, want.Gen)
	}
	if string(got.Result) != string(want.Result) {
		t.Fatalf("recovered session continuation differs:\nrecovered: %s\nreference: %s", got.Result, want.Result)
	}
	// New sessions must not collide with recovered IDs.
	next := openSession(t, b, treeBody)
	if next.SessionID == open.SessionID {
		t.Fatalf("new session reused recovered ID %s", next.SessionID)
	}
}

// TestSessionCloseJournaledAndCompacted: an explicitly closed session
// must stay closed across a restart, both via the journaled close
// record and via compaction (which rewrites the journal to live
// sessions only).
func TestSessionCloseJournaledAndCompacted(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dir := t.TempDir()
			a := newTestServer(t, storeConfig(dir))
			keep := openSession(t, a, treeBody)
			drop := openSession(t, a, treeBody)
			editSession(t, a, keep.SessionID, sessionEditBatch)
			if rec := do(a.Handler(), "DELETE", "/v1/session/"+drop.SessionID, ""); rec.Code != 200 {
				t.Fatalf("delete: status %d", rec.Code)
			}
			if compact {
				if err := a.snapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			a.Close()

			b := newTestServer(t, storeConfig(dir))
			if n := b.sessionCount(); n != 1 {
				t.Fatalf("recovered %d sessions, want 1", n)
			}
			if rec := do(b.Handler(), "POST", "/v1/session/"+drop.SessionID+"/edit", sessionEditBatch); rec.Code != 404 {
				t.Fatalf("closed session answered %d after restart, want 404", rec.Code)
			}
			if rec := do(b.Handler(), "POST", "/v1/session/"+keep.SessionID+"/edit", sessionEditBatch); rec.Code != 200 {
				t.Fatalf("live session answered %d after restart: %s", rec.Code, rec.Body)
			}
		})
	}
}

// TestCorruptSnapshotDiscardedNeverServed: a flipped byte in a
// snapshotted body must be discarded at recovery (counted), and the
// next request recomputed — byte-identical to the original cold
// answer, served as a miss.
func TestCorruptSnapshotDiscardedNeverServed(t *testing.T) {
	dir := t.TempDir()
	a := newTestServer(t, storeConfig(dir))
	cold := *postOK(t, a, "/v1/delay", delayBody)
	a.Close()

	path := filepath.Join(dir, "snapshot.dat")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte well past the header, inside the single record's
	// value bytes.
	raw[len(raw)-8] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, storeConfig(dir))
	if st := b.Stats(); st.StoreDiscardedCorrupt == 0 {
		t.Fatalf("store_discarded_corrupt = 0 after byte flip")
	}
	rec := post(b.Handler(), "/v1/delay", delayBody)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("corrupt entry served as a hit")
	}
	if rec.Body.String() != cold {
		t.Fatalf("recomputed answer differs from the original cold answer")
	}
	if st := b.Stats(); st.WarmHits != 0 {
		t.Fatalf("warm_hits = %d for a discarded entry", st.WarmHits)
	}
}

// TestPencilStoreBounded: the pencil store holds at most maxPencils
// pencils however many distinct trees it is offered, keeps the most
// recent one, and snapshots what it holds in key order.
func TestPencilStoreBounded(t *testing.T) {
	p := newPencilStore()
	const n = 4 * maxPencils
	for i := range n {
		p.PutPencil(fmt.Sprintf("tree%04d", i), []byte(fmt.Sprint(i)))
	}
	keys, vals := p.snapshot()
	if len(keys) == 0 || len(keys) > maxPencils {
		t.Fatalf("store holds %d pencils, want 1..%d", len(keys), maxPencils)
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("snapshot keys not sorted")
	}
	for i, k := range keys {
		var j int
		if _, err := fmt.Sscanf(k, "tree%04d", &j); err != nil || string(vals[i]) != fmt.Sprint(j) {
			t.Fatalf("snapshot pairs key %q with pencil %q", k, vals[i])
		}
	}
	if _, ok := p.GetPencil(fmt.Sprintf("tree%04d", n-1)); !ok {
		t.Error("most recent pencil evicted")
	}
	if got := p.builds.Load(); got != n {
		t.Errorf("builds = %d, want %d", got, n)
	}
}

// TestPencilsPersistAcrossRestart: a certified reduced-model pencil
// built before the restart must be reused after it — the warm server's
// first reduced analysis counts a pencil hit and no build, and its
// response is byte-identical.
func TestPencilsPersistAcrossRestart(t *testing.T) {
	body := treeBodyWithEngine("reduced")
	dir := t.TempDir()
	a := newTestServer(t, storeConfig(dir))
	cold := *postOK(t, a, "/v1/tree", body)
	stA := a.Stats()
	if stA.PencilBuilds == 0 {
		// The reduced engine fell back to exact (no pencil in play);
		// nothing to persist.
		t.Skip("reduced engine fell back; pencil path not exercised by this tree")
	}
	a.Close()

	b := newTestServer(t, storeConfig(dir))
	// Disable the warm response cache path by asking through a fresh
	// request that misses: same body is cached, so delete the entry by
	// using a server with caching off instead.
	bNoCache := newTestServer(t, Config{StoreDir: dir, SnapshotInterval: -1, CacheEntries: -1})
	warm := *postOK(t, bNoCache, "/v1/tree", body)
	if warm != cold {
		t.Fatalf("warm reduced analysis differs from cold:\nwarm: %scold: %s", warm, cold)
	}
	st := bNoCache.Stats()
	if st.PencilHits == 0 {
		t.Fatalf("warm reduced analysis did not hit the pencil store (hits=%d builds=%d)", st.PencilHits, st.PencilBuilds)
	}
	if st.PencilBuilds != 0 {
		t.Fatalf("warm reduced analysis rebuilt the pencil (builds=%d)", st.PencilBuilds)
	}
	_ = b
}

// TestSnapshotLoopRuns: with a tiny interval the background loop must
// persist entries without an explicit snapshot or Close.
func TestSnapshotLoopRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, SnapshotInterval: 5 * time.Millisecond}
	a := newTestServer(t, cfg)
	postOK(t, a, "/v1/delay", delayBody)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if fi, err := os.Stat(filepath.Join(dir, "snapshot.dat")); err == nil && fi.Size() > 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot loop never wrote a snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEditBatchCapRejected: a batch over maxSessionEdits must be a
// typed 400 before any edit is applied.
func TestEditBatchCapRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	open := openSession(t, s, treeBody)
	var b strings.Builder
	b.WriteString(`{"edits":[`)
	for i := 0; i <= maxSessionEdits; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"op":"driver","rtr":80}`)
	}
	b.WriteString(`]}`)
	rec := do(s.Handler(), "POST", "/v1/session/"+open.SessionID+"/edit", b.String())
	if rec.Code != 400 {
		t.Fatalf("oversized batch: status %d, want 400", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "limit") {
		t.Fatalf("oversized batch error not typed: %s", rec.Body)
	}
	// Nothing was applied.
	edit := editSession(t, s, open.SessionID, `{"edits":[]}`)
	if edit.Gen != 0 {
		t.Fatalf("gen = %d after rejected batch, want 0", edit.Gen)
	}
}
