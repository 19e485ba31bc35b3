package numeric

import (
	"math"

	"rlckit/internal/faultinject"
)

// Forest is the elimination order of a square matrix whose undirected
// off-diagonal structure is a forest (Parter, SIAM Review 1961; Rose,
// J. Math. Anal. Appl. 1970): each component is rooted, and every
// vertex is numbered before its parent, so Gaussian elimination in
// position order removes leaves towards the roots and creates no fill.
// An RLC tree's MNA graph — node voltages, R–L mid nodes and branch
// currents — is such a forest.
type Forest struct {
	Perm []int // Perm[orig] = position
	Inv  []int // Inv[pos] = orig
	// Parent[pos] is the position of pos's parent (always > pos), or -1
	// for a component root.
	Parent []int
}

// Branching reports whether some vertex of the union of the given
// triplet matrices has three or more distinct off-diagonal neighbours
// in its undirected structure — whether the structure is more than a
// union of paths and cycles. It costs one pass over the triplets and
// O(n) memory, and stops at the first such vertex.
func Branching(n int, ts ...*Triplets) bool {
	// Each vertex's first two distinct neighbours, -1 for none yet.
	first, second := make([]int, n), make([]int, n)
	for i := range first {
		first[i], second[i] = -1, -1
	}
	third := func(v, w int) bool {
		switch {
		case first[v] < 0 || first[v] == w:
			first[v] = w
		case second[v] < 0 || second[v] == w:
			second[v] = w
		default:
			return true
		}
		return false
	}
	for _, t := range ts {
		for k, i := range t.I {
			if j := t.J[k]; i != j && (third(i, j) || third(j, i)) {
				return true
			}
		}
	}
	return false
}

// ForestOrder returns the leaves-first elimination order of the union
// of the given triplet matrices, or nil when its undirected
// off-diagonal structure has a cycle. Each component is rooted at a
// vertex with no diagonal entry and at most one neighbour — a pivot
// nothing fills must come last, where the Schur complement of the rest
// fills it (the branch-current row of an ideal voltage source) — or
// else at its lowest-index vertex. Cost is O(n + nnz), with no sorting.
func ForestOrder(n int, ts ...*Triplets) *Forest {
	// Off-diagonal adjacency in CSR form, one entry per triplet end;
	// repeated coordinates (parallel elements, an entry stamped in both
	// G and C) stay as duplicates, which the search below tolerates.
	start := make([]int, n+1)
	hasDiag := make([]bool, n)
	for _, t := range ts {
		for k, i := range t.I {
			if j := t.J[k]; i != j {
				start[i+1]++
				start[j+1]++
			} else {
				hasDiag[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	adj := make([]int, start[n])
	fill := append([]int(nil), start[:n]...)
	for _, t := range ts {
		for k, i := range t.I {
			if j := t.J[k]; i != j {
				adj[fill[i]] = j
				fill[i]++
				adj[fill[j]] = i
				fill[j]++
			}
		}
	}

	// Breadth-first search from each root; the tail of order doubles as
	// the queue. A neighbour is either the parent, a child (first seen
	// here, or seen again through a duplicate entry), or a visited
	// vertex reached another way — a cycle.
	parent := make([]int, n) // original indices; -1 for a root
	seen := make([]bool, n)
	order := make([]int, 0, n)
	grow := func(root int) bool {
		seen[root] = true
		parent[root] = -1
		head := len(order)
		order = append(order, root)
		for head < len(order) {
			u := order[head]
			head++
			for _, w := range adj[start[u]:start[u+1]] {
				switch {
				case w == parent[u] || (seen[w] && parent[w] == u):
				case seen[w]:
					return false
				default:
					seen[w] = true
					parent[w] = u
					order = append(order, w)
				}
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		if !seen[v] && !hasDiag[v] && atMostOneNeighbour(adj[start[v]:start[v+1]]) && !grow(v) {
			return nil
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] && !grow(v) {
			return nil
		}
	}

	// Reversing the search order numbers every vertex before its parent
	// and keeps each component contiguous with its root last.
	f := &Forest{Perm: make([]int, n), Inv: make([]int, n), Parent: make([]int, n)}
	for k, v := range order {
		pos := n - 1 - k
		f.Inv[pos] = v
		f.Perm[v] = pos
	}
	for pos, v := range f.Inv {
		f.Parent[pos] = -1
		if p := parent[v]; p >= 0 {
			f.Parent[pos] = f.Perm[p]
		}
	}
	return f
}

// atMostOneNeighbour reports whether a vertex's adjacency entries name
// at most one distinct vertex.
func atMostOneNeighbour(nbrs []int) bool {
	for _, w := range nbrs {
		if w != nbrs[0] {
			return false
		}
	}
	return true
}

// TreeMatrix is a square matrix stored along a Forest, indexed by
// position: D holds the diagonal, and for every non-root position p,
// Up[p] = A[p][Parent[p]] and Low[p] = A[Parent[p]][p] (zero at roots).
type TreeMatrix struct {
	F          *Forest
	D, Up, Low []float64
}

// NewTreeMatrix returns a zero matrix on the forest's structure.
func NewTreeMatrix(f *Forest) *TreeMatrix {
	n := len(f.Parent)
	return &TreeMatrix{F: f, D: make([]float64, n), Up: make([]float64, n), Low: make([]float64, n)}
}

// AddScaledToTree accumulates s·v at (Perm[i], Perm[j]) for every
// recorded triplet — the O(nnz) stamp into tree storage. Every
// off-diagonal triplet must join a vertex to its forest parent, as it
// does when the forest came from ForestOrder over these triplets.
func (t *Triplets) AddScaledToTree(m *TreeMatrix, s float64) {
	perm, parent := m.F.Perm, m.F.Parent
	for k, i := range t.I {
		pi, pj := perm[i], perm[t.J[k]]
		v := float64(s * t.V[k])
		switch {
		case pi == pj:
			m.D[pi] += v
		case parent[pi] == pj:
			m.Up[pi] += v
		case parent[pj] == pi:
			m.Low[pj] += v
		default:
			panic("numeric: triplet off the forest's edges")
		}
	}
}

// MulVecTo computes dst = m·x in position order without allocating;
// dst must not alias x.
func (m *TreeMatrix) MulVecTo(dst, x []float64) {
	n := len(m.D)
	if len(x) != n || len(dst) != n {
		panic("numeric: TreeMatrix.MulVecTo dimension mismatch")
	}
	for k, d := range m.D {
		dst[k] = float64(d * x[k])
	}
	for k, p := range m.F.Parent {
		if p >= 0 {
			dst[k] = math.FMA(m.Up[k], x[p], dst[k])
			dst[p] = math.FMA(m.Low[k], x[k], dst[p])
		}
	}
}

// treePivotTol is the static-pivot threshold of FactorTreeLU: a pivot
// of magnitude at most treePivotTol times the largest entry of its row
// fails the factorization with ErrSingular, and the caller factors the
// matrix with partial pivoting instead.
const treePivotTol = 1e-10

// TreeLU is the no-fill LU factorization of a TreeMatrix in its
// forest's leaves-first order: L is unit lower triangular with one
// entry per forest edge, and U has the pivots on its diagonal and the
// matrix's own Up entries above it.
type TreeLU struct {
	parent []int
	l      []float64 // L[Parent[p]][p]
	u      []float64 // U[p][Parent[p]] / U[p][p], prescaled
	invd   []float64 // reciprocal pivots
	pivMax float64   // largest pivot magnitude
}

// FactorTreeLU factors a with static pivots in O(n); a is not
// modified. It fails with ErrSingular when a pivot is not larger than
// treePivotTol times the largest magnitude in its row of a, and fires
// the same faultinject.SiteFactor failpoint as FactorBandLUInto.
func FactorTreeLU(a *TreeMatrix) (*TreeLU, error) {
	if faultinject.Active {
		if err := faultinject.Inject(faultinject.SiteFactor); err != nil {
			return nil, err
		}
	}
	n := len(a.D)
	f := &TreeLU{
		parent: a.F.Parent,
		l:      make([]float64, n),
		u:      make([]float64, n),
		invd:   make([]float64, n),
	}
	// invd holds each running pivot until its position is eliminated;
	// rowMax collects the Low entries of each row of a from its
	// children, which all sit at lower positions.
	d := f.invd
	copy(d, a.D)
	rowMax := make([]float64, n)
	for k, p := range f.parent {
		piv := d[k]
		rm := max(rowMax[k], math.Abs(a.D[k]), math.Abs(a.Up[k]))
		if !(math.Abs(piv) > treePivotTol*rm) {
			return nil, ErrSingular
		}
		f.pivMax = max(f.pivMax, math.Abs(piv))
		inv := 1 / piv
		d[k] = inv
		if p >= 0 {
			lk := float64(a.Low[k] * inv)
			f.l[k] = lk
			f.u[k] = float64(a.Up[k] * inv)
			d[p] = math.FMA(-lk, a.Up[k], d[p])
			rowMax[p] = max(rowMax[p], math.Abs(a.Low[k]))
		}
	}
	return f, nil
}

// Growth returns the pivot growth max|U| / max|A| of the factorization
// of a — 1 when no pivot outgrew the matrix's own entries.
func (f *TreeLU) Growth(a *TreeMatrix) float64 {
	maxA, maxU := 0.0, f.pivMax
	for k := range a.D {
		maxA = max(maxA, math.Abs(a.D[k]), math.Abs(a.Up[k]), math.Abs(a.Low[k]))
		maxU = max(maxU, math.Abs(a.Up[k]))
	}
	return maxU / maxA
}

// SolveTo solves A·x = b into dst without allocating; dst may alias b.
func (f *TreeLU) SolveTo(dst, b []float64) {
	if len(b) != len(f.parent) || len(dst) != len(f.parent) {
		panic("numeric: TreeLU.SolveTo dimension mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	f.SolveInPlace(dst)
}

// SolveInPlace solves A·x = b, overwriting the right-hand side x with
// the solution: one leaf-to-root sweep through L and one root-to-leaf
// sweep through U, O(n), with no heap allocations. Every multiply-add
// is a math.FMA, so the bits do not depend on whether the compiler
// would fuse a plain x*y+z on the target architecture.
func (f *TreeLU) SolveInPlace(x []float64) {
	n := len(f.parent)
	if len(x) != n {
		panic("numeric: TreeLU.SolveInPlace dimension mismatch")
	}
	parent, l, u, invd := f.parent, f.l[:n], f.u[:n], f.invd[:n]
	for k, p := range parent {
		if p >= 0 {
			x[p] = math.FMA(-l[k], x[k], x[p])
		}
	}
	for k := n - 1; k >= 0; k-- {
		v := float64(x[k] * invd[k])
		if p := parent[k]; p >= 0 {
			v = math.FMA(-u[k], x[p], v)
		}
		x[k] = v
	}
}
