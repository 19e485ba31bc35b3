package session

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rlckit/internal/netgen"
	"rlckit/internal/rlctree"
	"rlckit/internal/tech"
)

// buildSmall returns a small asymmetric tree with two sinks.
func buildSmall(t testing.TB) (*rlctree.Tree, rlctree.Drive) {
	t.Helper()
	tr, err := rlctree.New(5e-15)
	if err != nil {
		t.Fatal(err)
	}
	stem, err := tr.Add(0, 20, 0.5e-9, 40e-15)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tr.Add(stem, 15, 0.4e-9, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Add(stem, 40, 1e-9, 60e-15)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.MarkSink(a, 20e-15); err != nil {
		t.Fatal(err)
	}
	if err := tr.MarkSink(b, 35e-15); err != nil {
		t.Fatal(err)
	}
	return tr, rlctree.Drive{Rtr: 80}
}

// buildClockTree returns the 64-sink H-tree instance the what-if
// benchmarks edit.
func buildClockTree(t testing.TB) netgen.TreeNet { return buildTree(t, 64) }

// buildTree returns a seeded H-tree instance with the given sink count.
func buildTree(t testing.TB, sinks int) netgen.TreeNet {
	t.Helper()
	node, err := tech.Lookup("180nm")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := netgen.RandomTreeBatch(42, node, netgen.TreeClockH, sinks, 1)
	if err != nil {
		t.Fatal(err)
	}
	return trees[0]
}

// randomEdit applies one deterministic pseudo-random value edit
// through Apply.
func randomEdit(t testing.TB, s *Session, rng *rand.Rand) {
	t.Helper()
	tr := s.Tree()
	n := tr.Len()
	f := 0.85 + 0.3*rng.Float64()
	var e Edit
	switch rng.Intn(3) {
	case 0:
		node := 1 + rng.Intn(n-1)
		r, l, _, err := tr.Branch(node)
		if err != nil {
			t.Fatal(err)
		}
		e = Edit{Op: OpBranch, Node: node, R: r * f, L: l * f}
	case 1:
		sinks := tr.Sinks()
		node := sinks[rng.Intn(len(sinks))]
		cl, err := tr.SinkLoad(node)
		if err != nil {
			t.Fatal(err)
		}
		if cl == 0 {
			cl = 1e-15
		}
		e = Edit{Op: OpLoad, Node: node, CL: cl * f}
	default:
		d := s.Drive()
		e = Edit{Op: OpDriver, Rtr: math.Max(1, d.Rtr*f), V: 1}
	}
	if err := s.Apply([]Edit{e}); err != nil {
		t.Fatal(err)
	}
}

// sameBits fails unless both results carry identical bits in every
// column — the session contract for the closed and MNA engines.
func sameBits(t *testing.T, tag string, got, want *rlctree.Result) {
	t.Helper()
	if got.Engine != want.Engine || got.Reduced != want.Reduced || got.Fallback != want.Fallback {
		t.Fatalf("%s: flags differ", tag)
	}
	if len(got.Sinks) != len(want.Sinks) {
		t.Fatalf("%s: sink count %d vs %d", tag, len(got.Sinks), len(want.Sinks))
	}
	eq := func(what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s differs: %v vs %v", tag, what, a, b)
		}
	}
	for i := range got.Sinks {
		g, w := &got.Sinks[i], &want.Sinks[i]
		if g.Node != w.Node || g.InDomain != w.InDomain {
			t.Fatalf("%s: sink %d identity differs", tag, i)
		}
		eq("Delay", g.Delay, w.Delay)
		eq("DelayClosed", g.DelayClosed, w.DelayClosed)
		eq("DelayRC", g.DelayRC, w.DelayRC)
		eq("M1", g.M1, w.M1)
		eq("Zeta", g.Zeta, w.Zeta)
		eq("OmegaN", g.OmegaN, w.OmegaN)
	}
	eq("MaxSkew", got.MaxSkew, want.MaxSkew)
	eq("SkewErrPct", got.SkewErrPct, want.SkewErrPct)
}

// TestSessionMatchesColdAnalysis: after every edit of a mixed script,
// the session's closed and MNA results must be bit-identical to a
// cold rlctree.Analyze of the session's current tree, and its reduced
// read — answered by the frozen exact engine, Fallback set — to the
// cold MNA analysis.
func TestSessionMatchesColdAnalysis(t *testing.T) {
	tr, d := buildSmall(t)
	s, err := Open(tr, d, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 12; step++ {
		randomEdit(t, s, rng)
		for _, eng := range []rlctree.Engine{rlctree.EngineClosed, rlctree.EngineMNA} {
			got, err := s.Result(context.Background(), eng)
			if err != nil {
				t.Fatalf("step %d %v: %v", step, eng, err)
			}
			want, err := rlctree.Analyze(s.Tree(), s.Drive(), rlctree.Config{Engine: eng})
			if err != nil {
				t.Fatalf("step %d %v cold: %v", step, eng, err)
			}
			sameBits(t, "session", got, want)
		}
		red, err := s.Result(context.Background(), rlctree.EngineReduced)
		if err != nil {
			t.Fatalf("step %d reduced: %v", step, err)
		}
		if !red.Fallback || red.Reduced {
			t.Fatalf("step %d: reduced read not answered exactly (reduced %v, fallback %v)", step, red.Reduced, red.Fallback)
		}
		exact, err := s.Result(context.Background(), rlctree.EngineMNA)
		if err != nil {
			t.Fatal(err)
		}
		for k := range red.Sinks {
			if math.Float64bits(red.Sinks[k].Delay) != math.Float64bits(exact.Sinks[k].Delay) {
				t.Fatalf("step %d sink %d: reduced read %v, cold MNA %v", step, k, red.Sinks[k].Delay, exact.Sinks[k].Delay)
			}
		}
	}
}

// TestSessionApplyAtomic: a batch whose tail edit is invalid must roll
// back entirely — the next result matches a cold analysis of the
// pre-batch tree bit for bit.
func TestSessionApplyAtomic(t *testing.T) {
	tr, d := buildSmall(t)
	s, err := Open(tr, d, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Tree()
	err = s.Apply([]Edit{
		{Op: OpBranch, Node: 1, R: 35, L: 0.7e-9},
		{Op: OpLoad, Node: 2, CL: 25e-15},
		{Op: OpBranch, Node: 99, R: 1, L: 1e-9}, // invalid: no such node
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	got, rerr := s.Result(context.Background(), rlctree.EngineClosed)
	if rerr != nil {
		t.Fatal(rerr)
	}
	want, rerr := rlctree.Analyze(before, d, rlctree.Config{Engine: rlctree.EngineClosed})
	if rerr != nil {
		t.Fatal(rerr)
	}
	sameBits(t, "rolled back", got, want)
	if s.Stats().Gen != 0 {
		t.Errorf("failed batch bumped the generation to %d", s.Stats().Gen)
	}
	// The batch must apply cleanly without the poison edit.
	if err := s.Apply([]Edit{
		{Op: OpBranch, Node: 1, R: 35, L: 0.7e-9},
		{Op: OpLoad, Node: 2, CL: 25e-15},
	}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Gen != 1 {
		t.Errorf("gen %d after one applied batch", s.Stats().Gen)
	}
}

// TestSessionResultCache: re-reading an unchanged state returns the
// cached result without re-running an engine; any edit invalidates it.
func TestSessionResultCache(t *testing.T) {
	tr, d := buildSmall(t)
	s, err := Open(tr, d, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Result(context.Background(), rlctree.EngineMNA)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result(context.Background(), rlctree.EngineMNA)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged state did not reuse the cached result")
	}
	if s.Stats().CacheHits != 1 {
		t.Errorf("cache hits %d, want 1", s.Stats().CacheHits)
	}
	if err := s.Apply([]Edit{{Op: OpDriver, Rtr: 60, V: 1}}); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Result(context.Background(), rlctree.EngineMNA)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("edit did not invalidate the cached result")
	}
}

// TestSessionClosed: every operation on a closed session fails with
// ErrClosed.
func TestSessionClosed(t *testing.T) {
	tr, d := buildSmall(t)
	s, err := Open(tr, d, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if err := s.Apply([]Edit{{Op: OpDriver, Rtr: 60, V: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply on closed session: %v", err)
	}
	if _, err := s.Result(context.Background(), rlctree.EngineClosed); !errors.Is(err, ErrClosed) {
		t.Errorf("Result on closed session: %v", err)
	}
}

// TestSessionDeterministicReplay: replaying the same edit script into
// two independent sessions yields bit-identical results at every step
// — the property that makes session traffic worker-count independent.
func TestSessionDeterministicReplay(t *testing.T) {
	tn := buildClockTree(t)
	open := func() *Session {
		s, err := Open(tn.Tree, tn.Drive, rlctree.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1, s2 := open(), open()
	rng1, rng2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for step := 0; step < 6; step++ {
		randomEdit(t, s1, rng1)
		randomEdit(t, s2, rng2)
		r1, err := s1.Result(context.Background(), rlctree.EngineReduced)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Result(context.Background(), rlctree.EngineReduced)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "replay", r1, r2)
	}
}

// TestSessionHeapFlatOverClosedReads: a session retains nothing per
// closed-form read beyond its edit history — 400 edit-and-read rounds
// on a 32-sink tree grow its retained heap by well under 1 KB a round
// (a per-sink crossing memo would add ~11 KB).
func TestSessionHeapFlatOverClosedReads(t *testing.T) {
	tn := buildTree(t, 32)
	s, err := Open(tn.Tree, tn.Drive, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			randomEdit(t, s, rng)
			if _, err := s.Result(context.Background(), rlctree.EngineClosed); err != nil {
				t.Fatal(err)
			}
		}
	}
	retained := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rounds(50)
	before := retained()
	const n = 400
	rounds(n)
	after := retained()
	runtime.KeepAlive(s)
	t.Logf("retained heap %d → %d B over %d reads", before, after, n)
	if after > before && after-before > n*1024 {
		t.Errorf("retained heap grew %d B over %d closed-form reads (%d B a read)",
			after-before, n, (after-before)/n)
	}
}

// BenchmarkWhatIfEditSequence replays a 1000-edit what-if script
// (branch, load, and driver edits) against a 64-sink clock tree,
// reading the closed-form delay table after every edit — the
// interactive what-if loop the session exists for. Gated in
// cmd/benchgate.
func BenchmarkWhatIfEditSequence(b *testing.B) {
	tn := buildClockTree(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(tn.Tree, tn.Drive, rlctree.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for e := 0; e < 1000; e++ {
			randomEdit(b, s, rng)
			if _, err := s.Result(ctx, rlctree.EngineClosed); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWhatIfExactRead is one what-if round on the exact engine:
// an edit, then a frozen MNA read of the 64-sink H-tree (the path a
// session's mna and reduced reads take). Gated in cmd/benchgate.
func BenchmarkWhatIfExactRead(b *testing.B) {
	tn := buildClockTree(b)
	ctx := context.Background()
	s, err := Open(tn.Tree, tn.Drive, rlctree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// The first read freezes the ordering; it amortizes over the
	// session's lifetime.
	if _, err := s.Result(ctx, rlctree.EngineMNA); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randomEdit(b, s, rng)
		if _, err := s.Result(ctx, rlctree.EngineMNA); err != nil {
			b.Fatal(err)
		}
	}
}
