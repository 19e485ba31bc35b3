package mna

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"rlckit/internal/circuit"
)

// denseRef stamps G and C into dense matrices by the textbook MNA rules,
// written independently of the sparse assembly path so the two can be
// cross-checked. Branch unknowns are allocated in element order after
// the node voltages, matching assemble's convention.
func denseRef(ckt *circuit.Circuit) (g, c [][]float64, n int) {
	nv := ckt.Nodes() - 1
	nbr := 0
	for _, e := range ckt.Elements() {
		if e.Kind == circuit.KindInductor || e.Kind == circuit.KindVSource {
			nbr++
		}
	}
	n = nv + nbr
	g = make([][]float64, n)
	c = make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
		c[i] = make([]float64, n)
	}
	br := nv
	branch := map[int]int{}
	for ei, e := range ckt.Elements() {
		a, b := e.A, e.B
		ia, ib := a-1, b-1
		switch e.Kind {
		case circuit.KindResistor, circuit.KindCapacitor:
			m, v := g, 1/e.Value
			if e.Kind == circuit.KindCapacitor {
				m, v = c, e.Value
			}
			if a != circuit.Ground {
				m[ia][ia] += v
			}
			if b != circuit.Ground {
				m[ib][ib] += v
			}
			if a != circuit.Ground && b != circuit.Ground {
				m[ia][ib] -= v
				m[ib][ia] -= v
			}
		case circuit.KindInductor, circuit.KindVSource:
			j := br
			br++
			branch[ei] = j
			if a != circuit.Ground {
				g[ia][j] += 1
				g[j][ia] += 1
			}
			if b != circuit.Ground {
				g[ib][j] -= 1
				g[j][ib] -= 1
			}
			if e.Kind == circuit.KindInductor {
				c[j][j] -= e.Value
			}
		}
	}
	for _, m := range ckt.Mutuals() {
		j1, j2 := branch[m.L1], branch[m.L2]
		c[j1][j2] -= m.M
		c[j2][j1] -= m.M
	}
	return g, c, n
}

// checkSparseMatchesDense asserts that the sparse assembly + RCM path
// produces exactly the dense reference stamps and the tightest band.
func checkSparseMatchesDense(t *testing.T, ckt *circuit.Circuit, label string) {
	t.Helper()
	sys, err := assemble(ckt)
	if err != nil {
		t.Fatalf("%s: assemble: %v", label, err)
	}
	g, c, n := denseRef(ckt)
	if n != sys.n {
		t.Fatalf("%s: n = %d, dense reference says %d", label, sys.n, n)
	}
	// Band widths must be exactly those of the dense structure under the
	// same permutation.
	kl, ku := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g[i][j] != 0 || c[i][j] != 0 {
				if d := sys.perm[i] - sys.perm[j]; d > kl {
					kl = d
				} else if -d > ku {
					ku = -d
				}
			}
		}
	}
	if kl != sys.kl || ku != sys.ku {
		t.Errorf("%s: band (%d,%d), dense structure needs (%d,%d)", label, sys.kl, sys.ku, kl, ku)
	}
	gb, cb := sys.permuted()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pg := gb.At(sys.perm[i], sys.perm[j])
			pc := cb.At(sys.perm[i], sys.perm[j])
			if math.Abs(pg-g[i][j]) > 1e-12*(1+math.Abs(g[i][j])) {
				t.Fatalf("%s: G[%d][%d] = %g, dense %g", label, i, j, pg, g[i][j])
			}
			if math.Abs(pc-c[i][j]) > 1e-12*(1+math.Abs(c[i][j])) {
				t.Fatalf("%s: C[%d][%d] = %g, dense %g", label, i, j, pc, c[i][j])
			}
		}
	}
}

func randVal(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

func TestSparseAssemblyMatchesDenseOnLadders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for rep := 0; rep < 8; rep++ {
		ckt := circuit.New()
		in := ckt.Node()
		must(ckt.AddV("vin", in, circuit.Ground, circuit.Step{Amplitude: 1}))
		prev := in
		segs := 1 + rng.Intn(30)
		for i := 0; i < segs; i++ {
			mid := ckt.Node()
			n := ckt.Node()
			must(ckt.AddR(fmt.Sprintf("r%d", i), prev, mid, randVal(rng, 0.1, 1e3)))
			must(ckt.AddL(fmt.Sprintf("l%d", i), mid, n, randVal(rng, 1e-12, 1e-6)))
			must(ckt.AddC(fmt.Sprintf("c%d", i), n, circuit.Ground, randVal(rng, 1e-16, 1e-9)))
			prev = n
		}
		checkSparseMatchesDense(t, ckt, fmt.Sprintf("ladder[%d segs]", segs))
	}
}

func TestSparseAssemblyMatchesDenseOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for rep := 0; rep < 8; rep++ {
		ckt := circuit.New()
		root := ckt.Node()
		must(ckt.AddV("vin", root, circuit.Ground, circuit.DC(1)))
		nodes := []int{root}
		extra := 2 + rng.Intn(25)
		for i := 0; i < extra; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			n := ckt.Node()
			name := fmt.Sprintf("e%d", i)
			switch rng.Intn(3) {
			case 0:
				must(ckt.AddR(name, parent, n, randVal(rng, 1, 1e4)))
			case 1:
				must(ckt.AddL(name, parent, n, randVal(rng, 1e-12, 1e-6)))
			default:
				must(ckt.AddC(name, parent, n, randVal(rng, 1e-15, 1e-9)))
			}
			nodes = append(nodes, n)
			// Sprinkle grounding elements so the tree stays physical.
			if rng.Intn(3) == 0 {
				must(ckt.AddC(name+"g", n, circuit.Ground, randVal(rng, 1e-15, 1e-9)))
			}
		}
		checkSparseMatchesDense(t, ckt, fmt.Sprintf("tree[%d nodes]", len(nodes)))
	}
}

func TestSparseAssemblyMatchesDenseOnDisconnectedComponents(t *testing.T) {
	// Several chains that share only the ground node: the unknown graph
	// is disconnected, exercising multi-component RCM.
	rng := rand.New(rand.NewSource(23))
	ckt := circuit.New()
	for comp := 0; comp < 4; comp++ {
		in := ckt.Node()
		must(ckt.AddV(fmt.Sprintf("v%d", comp), in, circuit.Ground, circuit.DC(float64(comp))))
		prev := in
		for i := 0; i < 1+rng.Intn(6); i++ {
			n := ckt.Node()
			must(ckt.AddR(fmt.Sprintf("r%d_%d", comp, i), prev, n, randVal(rng, 1, 1e4)))
			must(ckt.AddC(fmt.Sprintf("c%d_%d", comp, i), n, circuit.Ground, randVal(rng, 1e-15, 1e-9)))
			prev = n
		}
	}
	checkSparseMatchesDense(t, ckt, "disconnected")
}

func TestSparseAssemblyMatchesDenseWithMutualInductance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for rep := 0; rep < 4; rep++ {
		ckt := circuit.New()
		in := ckt.Node()
		must(ckt.AddV("vin", in, circuit.Ground, circuit.Step{Amplitude: 1}))
		prev := in
		segs := 3 + rng.Intn(10)
		for i := 0; i < segs; i++ {
			mid := ckt.Node()
			n := ckt.Node()
			must(ckt.AddR(fmt.Sprintf("r%d", i), prev, mid, randVal(rng, 1, 1e3)))
			must(ckt.AddL(fmt.Sprintf("l%d", i), mid, n, randVal(rng, 1e-10, 1e-7)))
			must(ckt.AddC(fmt.Sprintf("c%d", i), n, circuit.Ground, randVal(rng, 1e-15, 1e-10)))
			prev = n
		}
		// Couple adjacent inductors and one long-range pair (the latter
		// widens the band, stressing PermutedBandwidth).
		must(ckt.AddK("k01", "l0", "l1", 0.2+0.5*rng.Float64()))
		must(ckt.AddK("kfar", "l0", fmt.Sprintf("l%d", segs-1), 0.1))
		checkSparseMatchesDense(t, ckt, fmt.Sprintf("mutual[%d segs]", segs))
	}
}

func buildTestLadder(segs int) (*circuit.Circuit, int) {
	ckt := circuit.New()
	in := ckt.Node()
	must(ckt.AddV("vin", in, circuit.Ground, circuit.Step{Amplitude: 1, Delay: 1e-12}))
	prev := in
	out := in
	for i := 0; i < segs; i++ {
		mid := ckt.Node()
		n := ckt.Node()
		must(ckt.AddR(fmt.Sprintf("r%d", i), prev, mid, 10))
		must(ckt.AddL(fmt.Sprintf("l%d", i), mid, n, 1e-9))
		must(ckt.AddC(fmt.Sprintf("c%d", i), n, circuit.Ground, 1e-14))
		prev, out = n, n
	}
	return ckt, out
}

func TestACParallelMatchesSerialAndPreservesOrder(t *testing.T) {
	// Run with several workers even on small machines so the pool and the
	// result ordering are genuinely exercised.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	ckt, out := buildTestLadder(25)
	// Deliberately non-monotonic frequency order.
	freqs := []float64{1e9, 1e6, 5e9, 2e7, 0, 3e8, 1e10, 4e4, 7e8, 6e5, 2e9, 5e3, 9e9}
	res, err := AC(ckt, freqs, []int{out})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Freq) != len(freqs) {
		t.Fatalf("got %d frequencies, want %d", len(res.Freq), len(freqs))
	}
	for i, f := range freqs {
		if res.Freq[i] != f {
			t.Fatalf("Freq[%d] = %g, want %g (input order must be preserved)", i, res.Freq[i], f)
		}
	}
	h, err := res.H(out)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		single, err := AC(ckt, []float64{f}, []int{out})
		if err != nil {
			t.Fatal(err)
		}
		hs, _ := single.H(out)
		if d := h[i] - hs[0]; math.Hypot(real(d), imag(d)) > 1e-12*(1+math.Hypot(real(hs[0]), imag(hs[0]))) {
			t.Errorf("phasor at %g Hz: sweep %v vs solo %v", f, h[i], hs[0])
		}
	}
}

func TestSimulateStepLoopAllocationFree(t *testing.T) {
	ladder, out := buildTestLadder(40)
	tree := circuit.New()
	sinks := addTree(tree, "", 1e-12)
	dt := 1e-13
	for _, c := range []struct {
		ckt    *circuit.Circuit
		probes []int
	}{{ladder, []int{out}}, {tree, sinks}} {
		measure := func(steps int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := Simulate(c.ckt, Options{
					Dt:     dt,
					TEnd:   float64(steps) * dt,
					Probes: c.probes,
				}); err != nil {
					panic(err)
				}
			})
		}
		a300 := measure(300)
		a600 := measure(600)
		// Equal totals at different step counts means the steady-state
		// loop — band or tree solve — allocates nothing per timestep
		// (all allocations are per-call setup).
		if a600 > a300 {
			t.Errorf("%d probes: step loop allocates: %.1f allocs for 300 steps vs %.1f for 600", len(c.probes), a300, a600)
		}
	}
}
