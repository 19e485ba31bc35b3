package mna_test

import (
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/mna"
	"rlckit/internal/netgen"
	"rlckit/internal/pool"
	"rlckit/internal/rlctree"
	"rlckit/internal/tech"
)

// TestTreeLUAgreesWithBandLU: on the MNA of rlctree.ToCircuit — the
// conformance corpus's random trees, tree-cold-like trees of every kind
// at every tech node, and a 256-sink H-tree — the tree LU solves the
// trapezoidal step matrix A = C/h + G/2 to band LU's partial-pivoting
// solution within 1e-12 relative in the max norm, with pivot growth
// max|U| / max|A| at most 100. Growth measures 1–4.6 on the other 39
// trees and 55.4 on the 256-sink H-tree. It comes from MNA's
// mixed units, not from cancellation: with dt long against a short
// segment's C, a node's pivot C/h is small, and the branch-current row
// above it gets the pivot −L/h − 0.25/(C/h). The solutions still agree
// to ~1e-14.
func TestTreeLUAgreesWithBandLU(t *testing.T) {
	type treeCase struct {
		name string
		tree netgen.TreeNet
	}
	var cases []treeCase
	add := func(rng *rand.Rand, node tech.Node, kind netgen.TreeKind, sinks int) {
		tn, err := netgen.RandomTree(rng, node, kind, sinks)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, treeCase{tn.Name, tn})
	}
	kinds := []netgen.TreeKind{netgen.TreeBalanced, netgen.TreeUnbalanced, netgen.TreeClockH}
	// The conformance corpus's trees, drawn as its seedCorpus draws them.
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(pool.NewSource(pool.Seed(seed, 0)))
		add(rng, tech.Default(), kinds[int(seed)%len(kinds)], 3+rng.Intn(8))
	}
	rng := rand.New(rand.NewSource(11))
	for _, node := range tech.All() {
		for _, kind := range kinds {
			add(rng, node, kind, 8+rng.Intn(25))
		}
	}
	add(rand.New(rand.NewSource(256)), tech.Default(), netgen.TreeClockH, 256)

	worstDiff, worstGrowth := 0.0, 0.0
	for i, c := range cases {
		// The delay engines' step: a thirtieth of half the fastest sink's
		// closed-form delay.
		res, err := rlctree.Analyze(c.tree.Tree, c.tree.Drive, rlctree.Config{Engine: rlctree.EngineClosed})
		if err != nil {
			t.Fatal(err)
		}
		dt := math.Inf(1)
		for _, s := range res.Sinks {
			if s.DelayClosed > 0 {
				dt = math.Min(dt, s.DelayClosed/60)
			}
		}
		ckt, _, err := c.tree.Tree.ToCircuit(c.tree.Drive, 10*dt)
		if err != nil {
			t.Fatal(err)
		}
		diff, growth, err := mna.CompareStepSolvers(ckt, dt, int64(i))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if diff > 1e-12 {
			t.Errorf("%s: tree LU vs band LU relative max-norm difference %.3g", c.name, diff)
		}
		if growth > 100 {
			t.Errorf("%s: pivot growth %.3g", c.name, growth)
		}
		worstDiff, worstGrowth = math.Max(worstDiff, diff), math.Max(worstGrowth, growth)
	}
	t.Logf("%d trees: worst relative difference %.2g, worst pivot growth %.3g", len(cases), worstDiff, worstGrowth)
}
