package mna

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/circuit"
	"rlckit/internal/numeric"
)

// addTree adds to ckt a step source delayed by delay driving a
// two-level RLC tree — three arms under the root, two sinks under each
// arm — and returns the six sink nodes.
func addTree(ckt *circuit.Circuit, tag string, delay float64) []int {
	src := ckt.Node()
	must(ckt.AddV(tag+"vin", src, circuit.Ground, circuit.Step{Amplitude: 1, Delay: delay}))
	root := ckt.Node()
	must(ckt.AddR(tag+"rtr", src, root, 50))
	must(ckt.AddC(tag+"c0", root, circuit.Ground, 4e-14))
	branch := func(name string, from int, r, l, c float64) int {
		mid, n := ckt.Node(), ckt.Node()
		must(ckt.AddR(name+"r", from, mid, r))
		must(ckt.AddL(name+"l", mid, n, l))
		must(ckt.AddC(name+"c", n, circuit.Ground, c))
		return n
	}
	var sinks []int
	for a := 0; a < 3; a++ {
		arm := branch(fmt.Sprintf("%sa%d", tag, a), root, 15+5*float64(a), 4e-10, 5e-14)
		for s := 0; s < 2; s++ {
			sinks = append(sinks, branch(fmt.Sprintf("%sa%ds%d", tag, a, s), arm, 30+10*float64(s), 3e-10, (2+float64(a+s))*1e-14))
		}
	}
	return sinks
}

// caplessLeafTree is the tree of addTree with one more R–L branch to a
// leaf that has no capacitance: that leaf's KCL row has a zero static
// pivot, so the transient runs on band LU with partial pivoting. It
// returns the circuit and addTree's sinks.
func caplessLeafTree() (*circuit.Circuit, []int) {
	ckt := circuit.New()
	sinks := addTree(ckt, "", 1e-12)
	mid, leaf := ckt.Node(), ckt.Node()
	must(ckt.AddR("stubr", sinks[2], mid, 25))
	must(ckt.AddL("stubl", mid, leaf, 2e-10))
	return ckt, sinks
}

// stepSolver assembles ckt as Simulate does and factors its step
// matrix.
func stepSolver(t *testing.T, ckt *circuit.Circuit, h float64) *stepMatrix {
	t.Helper()
	sys, err := assembleCore(ckt)
	if err != nil {
		t.Fatal(err)
	}
	sys.computeStepOrdering()
	st, err := sys.factorStep(h, false)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStepSolverSelection pins which solver steps each structure.
func TestStepSolverSelection(t *testing.T) {
	tree := circuit.New()
	addTree(tree, "", 1e-12)

	ladder, _ := buildTestLadder(40)

	// The same tree with a resistor from one sink to another: an RC loop.
	loop := circuit.New()
	loopSinks := addTree(loop, "", 1e-12)
	must(loop.AddR("rloop", loopSinks[0], loopSinks[5], 100))

	// Mutual inductance between two arms couples their branch currents.
	mutual := circuit.New()
	addTree(mutual, "", 1e-12)
	must(mutual.AddK("k", "a0l", "a1l", 0.3))

	capless, _ := caplessLeafTree()

	// Two independently driven trees: a forest of two components.
	forest := circuit.New()
	addTree(forest, "x", 1e-12)
	addTree(forest, "y", 2e-12)

	for _, c := range []struct {
		name string
		ckt  *circuit.Circuit
		tree bool
	}{
		{"tree", tree, true},
		{"ladder", ladder, false},
		{"rc-loop", loop, false},
		{"mutual", mutual, false},
		{"capless-rl-leaf", capless, false},
		{"two-trees", forest, true},
	} {
		st := stepSolver(t, c.ckt, 2e-13)
		_, isTree := st.lu.(*numeric.TreeLU)
		_, isBand := st.lu.(*numeric.BandLU)
		if isTree != c.tree || isBand == c.tree {
			t.Errorf("%s: solver %T, want tree LU %v", c.name, st.lu, c.tree)
		}
	}
}

// TestCaplessLeafBitIdenticalToBandPath: a tree the tree LU declines
// runs exactly the band transient it ran before the tree LU existed;
// the expected bits were read from that band-only implementation.
func TestCaplessLeafBitIdenticalToBandPath(t *testing.T) {
	ckt, sinks := caplessLeafTree()
	res, err := Simulate(ckt, Options{Dt: 2e-13, TEnd: 2e-10, Probes: sinks, CrossLevel: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{ // 12.34, 14.14, 18.65, 18.10, 21.89, 21.68 ps
		0x3dab23072cac4570, 0x3daf170f4322990a, 0x3db482134dd40a7d,
		0x3db3e6dce2819a37, 0x3db81119970ac597, 0x3db7d6023f529313,
	}
	for k, c := range res.Crossings {
		if math.Float64bits(c) != want[k] {
			t.Errorf("sink %d: crossing %v (bits %#x), want bits %#x", sinks[k], c, math.Float64bits(c), want[k])
		}
	}
}

// simulateBand runs Simulate on the band solver regardless of the
// circuit's structure: a system with no forest always steps on band LU.
func simulateBand(ckt *circuit.Circuit, opts Options) (*Result, error) {
	sys, err := assembleCore(ckt)
	if err != nil {
		return nil, err
	}
	sys.computeOrdering()
	return simulateSys(sys, ckt.Nodes(), opts)
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestTreeTransientMatchesBand: tree circuits stepped through the tree
// LU and through band LU agree: crossings within 1e-12 relative, under
// both integration rules, and the waveforms of a run that starts from a
// nonzero operating point (a step already on at t = 0) too.
func TestTreeTransientMatchesBand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ckts := []*circuit.Circuit{}
	tree := circuit.New()
	sinks := addTree(tree, "", 1e-12)
	ckts = append(ckts, tree)
	for i := 0; i < 4; i++ {
		ckts = append(ckts, randomTreeCkt(rng).ckt)
	}
	for i, ckt := range ckts {
		probes := sinks
		if i > 0 {
			probes = []int{ckt.Nodes() - 1, ckt.Nodes() / 2}
		}
		for _, m := range []Method{Trapezoidal, BackwardEuler} {
			opts := Options{Method: m, Dt: 2e-13, TEnd: 1e-8, Probes: probes, CrossLevel: 0.5}
			got, err := Simulate(ckt, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := simulateBand(ckt, opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Crossings {
				if d := relDiff(got.Crossings[k], want.Crossings[k]); d > 1e-12 {
					t.Errorf("circuit %d, %v, probe %d: tree %v vs band %v (rel %.2g)", i, m, probes[k], got.Crossings[k], want.Crossings[k], d)
				}
			}
		}
	}

	// A step on at t = 0: the operating point solve and A·x(0).
	dc := circuit.New()
	dcSinks := addTree(dc, "", 0)
	opts := Options{Dt: 2e-13, TEnd: 5e-11, Probes: dcSinks[:2]}
	got, err := Simulate(dc, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulateBand(dc, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range opts.Probes {
		gv, _ := got.V(p)
		wv, _ := want.V(p)
		if math.Abs(gv[0]-1) > 1e-12 || math.Abs(wv[0]-1) > 1e-12 {
			t.Fatalf("node %d starts at %v (tree) and %v (band), want the 1 V operating point", p, gv[0], wv[0])
		}
		for s := range wv {
			if math.Abs(gv[s]-wv[s]) > 1e-12 {
				t.Fatalf("node %d sample %d: tree %v vs band %v", p, s, gv[s], wv[s])
			}
		}
	}
	for k := range want.Final {
		if math.Abs(got.Final[k]-want.Final[k]) > 1e-12*(1+math.Abs(want.Final[k])) {
			t.Errorf("final state %d: tree %v vs band %v", k, got.Final[k], want.Final[k])
		}
	}
}

// compareStepSolvers factors ckt's trapezoidal step matrix at step h
// with the tree LU and with band LU (partial pivoting), solves both for
// one right-hand side drawn from seed, and returns the max-norm relative
// difference of the two solutions and the tree factor's pivot growth.
// It fails when the tree LU does not step the system.
func compareStepSolvers(ckt *circuit.Circuit, h float64, seed int64) (diff, growth float64, err error) {
	sys, err := assembleCore(ckt)
	if err != nil {
		return 0, 0, err
	}
	sys.computeStepOrdering()
	tree, err := sys.factorStep(h, false)
	if err != nil {
		return 0, 0, err
	}
	tlu, ok := tree.lu.(*numeric.TreeLU)
	if !ok {
		return 0, 0, fmt.Errorf("mna: the %d-unknown system steps on %T, not the tree LU", sys.n, tree.lu)
	}
	sys.forest = nil
	band, err := sys.factorStep(h, false)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, sys.n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xt, xb := solveOriginal(tree, b), solveOriginal(band, b)
	num, den := 0.0, 0.0
	for i := range xb {
		num = math.Max(num, math.Abs(xt[i]-xb[i]))
		den = math.Max(den, math.Abs(xb[i]))
	}
	return num / den, tlu.Growth(tree.a.(*numeric.TreeMatrix)), nil
}

// solveOriginal solves the factored step matrix for b, both in the
// original unknown order.
func solveOriginal(st *stepMatrix, b []float64) []float64 {
	x := make([]float64, len(b))
	for orig, v := range b {
		x[st.perm[orig]] = v
	}
	st.lu.SolveTo(x, x)
	out := make([]float64, len(b))
	for orig := range out {
		out[orig] = x[st.perm[orig]]
	}
	return out
}
