package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomTreeTriplets draws an n-vertex random tree (vertex v > 0 hangs
// under a uniformly random earlier vertex) as triplets with both
// off-diagonal entries of every edge, random signs, and diagonals that
// dominate their rows, except that vertex zeroDiag (when ≥ 0) gets no
// diagonal entry. It returns the triplets and the dense matrix.
func randomTreeTriplets(rng *rand.Rand, n, zeroDiag int) (*Triplets, *Matrix) {
	t := NewTriplets(n)
	rowSum := make([]float64, n)
	add := func(i, j int, v float64) {
		t.Add(i, j, v)
		rowSum[i] += math.Abs(v)
	}
	for v := 1; v < n; v++ {
		p := rng.Intn(v)
		add(v, p, rng.NormFloat64())
		add(p, v, rng.NormFloat64())
	}
	for i := 0; i < n; i++ {
		if i != zeroDiag {
			t.Add(i, i, (1+rng.Float64())*(rowSum[i]+0.1)*float64(1-2*rng.Intn(2)))
		}
	}
	a := NewMatrix(n, n)
	for k, i := range t.I {
		a.Add(i, t.J[k], t.V[k])
	}
	return t, a
}

func factorTree(t *testing.T, trips ...*Triplets) (*TreeMatrix, *TreeLU) {
	t.Helper()
	f := ForestOrder(trips[0].N, trips...)
	if f == nil {
		t.Fatal("ForestOrder: structure reported as cyclic")
	}
	a := treeMatrixOf(f, trips...)
	lu, err := FactorTreeLU(a)
	if err != nil {
		t.Fatalf("FactorTreeLU: %v", err)
	}
	return a, lu
}

// solveOrig solves through the tree factor in original unknown order.
func solveOrig(f *Forest, lu *TreeLU, b []float64) []float64 {
	x := make([]float64, len(b))
	for i, v := range b {
		x[f.Perm[i]] = v
	}
	lu.SolveInPlace(x)
	out := make([]float64, len(b))
	for i := range out {
		out[i] = x[f.Perm[i]]
	}
	return out
}

func maxRelDiff(a, b []float64) float64 {
	d, m := 0.0, 0.0
	for i := range a {
		d = max(d, math.Abs(a[i]-b[i]))
		m = max(m, math.Abs(b[i]))
	}
	return d / m
}

func TestForestOrderInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		tr, _ := randomTreeTriplets(rng, n, -1)
		f := ForestOrder(n, tr)
		if f == nil {
			t.Fatalf("trial %d: a tree reported as cyclic", trial)
		}
		roots := 0
		for pos, p := range f.Parent {
			if f.Perm[f.Inv[pos]] != pos {
				t.Fatalf("trial %d: Perm and Inv are not inverse at %d", trial, pos)
			}
			switch {
			case p == -1:
				roots++
			case p <= pos:
				t.Fatalf("trial %d: position %d has parent %d, not after it", trial, pos, p)
			}
		}
		if roots != 1 || f.Parent[n-1] != -1 {
			t.Fatalf("trial %d: %d roots, last position's parent %d; want one root, last", trial, roots, f.Parent[n-1])
		}
	}
}

func TestForestOrderStructure(t *testing.T) {
	// A star 0–{1,2,3} whose 3–0 edge is stamped twice (parallel
	// elements) and also into a second matrix: still a forest.
	g, c := NewTriplets(5), NewTriplets(5)
	for _, v := range []int{1, 2, 3} {
		g.Add(0, v, -1)
		g.Add(v, 0, -1)
		g.Add(v, v, 2)
	}
	g.Add(0, 3, -1)
	c.Add(3, 0, 0.5)
	g.Add(0, 0, 4)
	// Vertex 4 is isolated: a second component.
	c.Add(4, 4, 1)
	f := ForestOrder(5, g, c)
	if f == nil {
		t.Fatal("star with duplicate entries reported as cyclic")
	}
	if !Branching(5, g, c) {
		t.Error("star with a degree-3 vertex not reported as branching")
	}
	roots := 0
	for _, p := range f.Parent {
		if p < 0 {
			roots++
		}
	}
	if roots != 2 {
		t.Errorf("%d roots, want 2 (two components)", roots)
	}

	// Closing a loop 1–2 makes it cyclic.
	g.Add(1, 2, -1)
	if ForestOrder(5, g, c) != nil {
		t.Error("triangle 0–1–2 not reported as a cycle")
	}

	// A path, its edges stamped twice, is a forest but not branching.
	p := NewTriplets(4)
	for i := 0; i+1 < 4; i++ {
		p.Add(i, i+1, 1)
		p.Add(i+1, i, 1)
		p.Add(i, i+1, 1)
	}
	if ForestOrder(4, p) == nil || Branching(4, p) {
		t.Error("path: want a forest that is not branching")
	}
}

// TestForestOrderRootsAtZeroDiagonalLeaf: a zero-diagonal leaf (an
// ideal voltage source's branch-current row) becomes the root, even
// when a lower-index interior vertex has no diagonal entry either.
func TestForestOrderRootsAtZeroDiagonalLeaf(t *testing.T) {
	// 0 (no diagonal, interior) – 1 – 2 (no diagonal, leaf), and 0 – 3.
	m := NewTriplets(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 3}} {
		m.Add(e[0], e[1], 1)
		m.Add(e[1], e[0], 1)
	}
	m.Add(1, 1, 3)
	m.Add(3, 3, 3)
	f := ForestOrder(4, m)
	if f == nil {
		t.Fatal("tree reported as cyclic")
	}
	if f.Inv[3] != 2 {
		t.Fatalf("root is vertex %d, want the zero-diagonal leaf 2", f.Inv[3])
	}
	if _, err := FactorTreeLU(treeMatrixOf(f, m)); err != nil {
		t.Errorf("both zero diagonals are filled by Schur complements: %v", err)
	}
}

func treeMatrixOf(f *Forest, ts ...*Triplets) *TreeMatrix {
	a := NewTreeMatrix(f)
	for _, tr := range ts {
		tr.AddScaledToTree(a, 1)
	}
	return a
}

// TestTreeLUMatchesDenseLU: the no-fill factor solves random tree
// matrices — one with a zero-diagonal root — to the partial-pivoting
// dense solution, and MulVecTo matches the dense product.
func TestTreeLUMatchesDenseLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(80)
		zeroDiag := -1
		if trial%2 == 1 {
			// A leaf: vertex n-1 has no children in randomTreeTriplets.
			zeroDiag = n - 1
		}
		tr, dense := randomTreeTriplets(rng, n, zeroDiag)
		a, lu := factorTree(t, tr)
		if zeroDiag >= 0 && a.F.Inv[n-1] != zeroDiag {
			t.Fatalf("trial %d: zero-diagonal leaf %d is not the root", trial, zeroDiag)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxRelDiff(solveOrig(a.F, lu, b), want); d > 1e-12 {
			t.Errorf("trial %d (n=%d): tree LU vs dense LU relative max-norm difference %.3g", trial, n, d)
		}
		xp, yp := make([]float64, n), make([]float64, n)
		for i, v := range b {
			xp[a.F.Perm[i]] = v
		}
		a.MulVecTo(yp, xp)
		wantY := dense.MulVec(b)
		got := make([]float64, n)
		for i := range got {
			got[i] = yp[a.F.Perm[i]]
		}
		if d := maxRelDiff(got, wantY); d > 1e-14 {
			t.Errorf("trial %d: MulVecTo vs dense relative difference %.3g", trial, d)
		}
	}
}

// TestTreeLUStaticPivotFails: a zero-diagonal vertex that is
// eliminated as a leaf has nothing to fill its pivot, and a pivot
// cancelled to rounding level is as unusable; both fail with
// ErrSingular so the caller can pivot instead.
func TestTreeLUStaticPivotFails(t *testing.T) {
	// Two zero-diagonal leaves 1 and 2 under vertex 0: one is the root,
	// the other a leaf with a zero pivot.
	m := NewTriplets(3)
	for _, v := range []int{1, 2} {
		m.Add(0, v, 1)
		m.Add(v, 0, 1)
	}
	m.Add(0, 0, 1)
	if _, err := FactorTreeLU(treeMatrixOf(ForestOrder(3, m), m)); !errors.Is(err, ErrSingular) {
		t.Errorf("zero leaf pivot: err = %v, want ErrSingular", err)
	}
	// [[1, 1], [1, 1+1e-13]]: the second pivot is 1e-13 of its row.
	c := NewTriplets(2)
	c.Add(0, 0, 1)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 1+1e-13)
	if _, err := FactorTreeLU(treeMatrixOf(ForestOrder(2, c), c)); !errors.Is(err, ErrSingular) {
		t.Errorf("cancelled pivot: err = %v, want ErrSingular", err)
	}
}

func TestTreeLUSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := randomTreeTriplets(rng, 300, -1)
	_, lu := factorTree(t, tr)
	x := make([]float64, 300)
	b := make([]float64, 300)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(20, func() { lu.SolveTo(x, b) }); allocs != 0 {
		t.Errorf("TreeLU.SolveTo allocates %.1f times per call, want 0", allocs)
	}
}
