package rlctree

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/cancel"
)

// sameBits fails unless every column of both results carries identical
// bits — the incremental engine's contract for the closed and MNA
// paths is bit-identity with a cold Analyze of the edited tree.
func sameBits(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Engine != want.Engine || got.Reduced != want.Reduced || got.Fallback != want.Fallback {
		t.Fatalf("%s: flags (engine %v/%v reduced %v/%v fallback %v/%v)", tag,
			got.Engine, want.Engine, got.Reduced, want.Reduced, got.Fallback, want.Fallback)
	}
	if len(got.Sinks) != len(want.Sinks) {
		t.Fatalf("%s: sink count %d vs %d", tag, len(got.Sinks), len(want.Sinks))
	}
	eq := func(what string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s differs: %v (%#x) vs %v (%#x)", tag, what,
				a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	for i := range got.Sinks {
		g, w := &got.Sinks[i], &want.Sinks[i]
		if g.Node != w.Node || g.InDomain != w.InDomain {
			t.Fatalf("%s: sink %d identity (node %d/%d inDomain %v/%v)", tag, i,
				g.Node, w.Node, g.InDomain, w.InDomain)
		}
		eq("Delay", g.Delay, w.Delay)
		eq("DelayClosed", g.DelayClosed, w.DelayClosed)
		eq("DelayRC", g.DelayRC, w.DelayRC)
		eq("M1", g.M1, w.M1)
		eq("M2", g.M2, w.M2)
		eq("M3", g.M3, w.M3)
		eq("Zeta", g.Zeta, w.Zeta)
		eq("OmegaN", g.OmegaN, w.OmegaN)
		eq("FitErr", g.FitErr, w.FitErr)
	}
	eq("MinDelay", got.MinDelay, want.MinDelay)
	eq("MaxDelay", got.MaxDelay, want.MaxDelay)
	eq("MaxSkew", got.MaxSkew, want.MaxSkew)
	eq("MaxSkewRC", got.MaxSkewRC, want.MaxSkewRC)
	eq("SkewErrPct", got.SkewErrPct, want.SkewErrPct)
}

// editStep applies one deterministic pseudo-random value edit and
// returns a tag describing it.
func editStep(t *testing.T, inc *Incremental, rng *rand.Rand) string {
	t.Helper()
	n := inc.t.Len()
	node := 1 + rng.Intn(n-1)
	f := 0.8 + 0.45*rng.Float64()
	switch rng.Intn(3) {
	case 0:
		r, l, _, err := inc.t.Branch(node)
		if err != nil {
			t.Fatal(err)
		}
		if err := inc.SetBranch(node, r*f, l*f); err != nil {
			t.Fatal(err)
		}
		return "branch"
	case 1:
		// Re-target a sink load (sinks only).
		sinks := inc.t.Sinks()
		s := sinks[rng.Intn(len(sinks))]
		cl, err := inc.t.SinkLoad(s)
		if err != nil {
			t.Fatal(err)
		}
		if cl == 0 {
			cl = 1e-15
		}
		if err := inc.SetLoad(s, cl*f); err != nil {
			t.Fatal(err)
		}
		return "load"
	default:
		d := inc.Drive()
		d.Rtr = math.Max(1, d.Rtr*f)
		d.V = 0.9 + 0.2*rng.Float64()
		if err := inc.SetDriver(d); err != nil {
			t.Fatal(err)
		}
		return "driver"
	}
}

// TestIncrementalClosedBitIdentical: after every edit of a 200-step
// script, the incremental closed result must be bit-identical to a
// cold Analyze of the edited tree.
func TestIncrementalClosedBitIdentical(t *testing.T) {
	inc, err := NewIncremental(buildBalanced(t), Drive{Rtr: 80}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 200; step++ {
		tag := editStep(t, inc, rng)
		got, err := inc.Analyze(context.Background(), EngineClosed)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, tag, err)
		}
		want, err := Analyze(inc.Tree(), inc.Drive(), Config{Engine: EngineClosed})
		if err != nil {
			t.Fatalf("step %d cold: %v", step, err)
		}
		sameBits(t, tag, got, want)
	}
	if st := inc.Stats(); st.Edits != 200 || st.Analyzes != 200 {
		t.Errorf("stats: %+v", st)
	}
}

// TestIncrementalMNABitIdentical: the frozen-ordering exact path must
// be bit-identical to a cold EngineMNA analysis after every edit,
// including a driver edit and a structural (zero-crossing) edit that
// forces a rebuild.
func TestIncrementalMNABitIdentical(t *testing.T) {
	inc, err := NewIncremental(buildY(t), Drive{Rtr: 80}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	check := func(tag string) {
		t.Helper()
		got, err := inc.Analyze(context.Background(), EngineMNA)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		want, err := Analyze(inc.Tree(), inc.Drive(), Config{Engine: EngineMNA})
		if err != nil {
			t.Fatalf("%s cold: %v", tag, err)
		}
		sameBits(t, tag, got, want)
	}
	check("open")
	for step := 0; step < 6; step++ {
		check(editStep(t, inc, rng))
	}
	// Structural edit: drop the stem's inductance entirely — the emitted
	// circuit loses an element and the frozen ordering must rebuild.
	r, _, _, err := inc.t.Branch(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetBranch(1, r, 0); err != nil {
		t.Fatal(err)
	}
	check("structural")
	if inc.Stats().Rebuilds == 0 {
		t.Error("zero-crossing edit did not rebuild the frozen state")
	}
}

// TestIncrementalReducedReadIsExact: a reduced read is answered by the
// frozen exact engine — Fallback set, no reduced model — and its
// delays are bit-identical to a cold EngineMNA analysis of the edited
// tree after every edit.
func TestIncrementalReducedReadIsExact(t *testing.T) {
	inc, err := NewIncremental(buildBalanced(t), Drive{Rtr: 80}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 6; step++ {
		tag := editStep(t, inc, rng)
		got, err := inc.Analyze(context.Background(), EngineReduced)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !got.Fallback || got.Reduced || got.Engine != EngineReduced {
			t.Fatalf("%s: flags engine %v reduced %v fallback %v", tag, got.Engine, got.Reduced, got.Fallback)
		}
		want, err := Analyze(inc.Tree(), inc.Drive(), Config{Engine: EngineMNA})
		if err != nil {
			t.Fatal(err)
		}
		got.Engine, got.Fallback = EngineMNA, false
		sameBits(t, tag, got, want)
	}
	if st := inc.Stats(); st.Fallbacks != 6 || st.Analyzes != 6 {
		t.Errorf("stats: %+v", st)
	}
}

// TestIncrementalCancel: a canceled context must propagate out of the
// simulation paths as a cancel error, never as a fallback.
func TestIncrementalCancel(t *testing.T) {
	inc, err := NewIncremental(buildBalanced(t), Drive{Rtr: 80}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	stop()
	for _, eng := range []Engine{EngineMNA, EngineReduced} {
		if _, err := inc.Analyze(ctx, eng); !cancel.Is(err) {
			t.Errorf("%v: want cancel error, got %v", eng, err)
		}
	}
	// The session must remain usable after a canceled read.
	if _, err := inc.Analyze(context.Background(), EngineMNA); err != nil {
		t.Errorf("post-cancel analyze: %v", err)
	}
}

// TestIncrementalEditValidation: rejected edits must not corrupt the
// session — a bad node, a negative value, and a zeroed branch all
// error typed, and the next analysis still matches cold.
func TestIncrementalEditValidation(t *testing.T) {
	inc, err := NewIncremental(buildY(t), Drive{Rtr: 80}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetBranch(99, 1, 1e-9); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := inc.SetBranch(1, -5, 1e-9); err == nil {
		t.Error("negative resistance accepted")
	}
	if err := inc.SetBranch(1, 0, 0); err == nil {
		t.Error("zero-impedance branch accepted")
	}
	if err := inc.SetLoad(1, 1e-15); err == nil {
		t.Error("SetLoad on a non-sink accepted")
	}
	if err := inc.SetDriver(Drive{Rtr: -1}); err == nil {
		t.Error("negative driver resistance accepted")
	}
	got, err := inc.Analyze(context.Background(), EngineClosed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(inc.Tree(), inc.Drive(), Config{Engine: EngineClosed})
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after rejected edits", got, want)
}
