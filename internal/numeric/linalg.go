// Package numeric is rlckit's from-scratch numerical substrate: dense,
// banded, tree-structured and sparse-triplet linear algebra, scalar
// root finding, polynomial arithmetic and root finding, 1-D and simplex
// minimization, quadrature, interpolation, least-squares fitting, and
// ODE integration.
//
// Everything is written against the Go standard library only. The hot
// paths — band LU factorization and solves, band matrix–vector products,
// the no-fill tree LU (tree.go), and sparse assembly (sparse.go) — are
// engineered for asymptotic and constant-factor performance: band
// storage is row-major so inner loops stream contiguous memory, every
// kernel has an in-place variant (MulVecTo, FactorBandLUInto,
// SolveInPlace, SolveTo, and complex twins in cband.go) that performs
// zero heap allocations when scratch is reused, and assembly,
// reordering (RCM, and ForestOrder's leaves-first order), and bandwidth
// computation all run in O(nnz). A matrix whose off-diagonal structure
// is a forest factors with static pivots and no fill in O(n), and each
// solve is one leaf-to-root and one root-to-leaf sweep; its kernels
// write every multiply-add as math.FMA or with an explicit float64()
// rounding, so their bits do not depend on whether the target
// architecture fuses x*y+z. The remaining routines favor robustness on the
// moderately sized, well-conditioned problems that arise in interconnect
// analysis (polynomials up to degree ~100, small dense systems).
package numeric

import (
	"errors"
	"fmt"
	"math"

	"rlckit/internal/faultinject"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("numeric: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j); the natural operation for
// MNA stamping.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = m·x. It panics if dimensions mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("numeric: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// ErrSingular reports a numerically singular matrix during factorization.
var ErrSingular = errors.New("numeric: singular matrix")

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U with unit-diagonal L stored below the diagonal of LU.
type LU struct {
	n       int
	lu      []float64
	piv     []int
	sign    int
	scratch []float64 // pivot-gather buffer for SolveTo
}

// FactorLU computes the LU factorization of the square matrix a.
// a is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := FactorLUInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic("numeric: LU.Solve dimension mismatch")
	}
	n := f.n
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x
}

// FactorLUInto factors a into f, reusing f's storage when its shape
// matches a previous factorization of the same dimension — repeated
// small dense factorizations (a reduced-order model's per-timestep
// matrices) then allocate nothing. a is not modified.
func FactorLUInto(f *LU, a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("numeric: FactorLUInto needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if f.n != n || len(f.lu) != n*n {
		f.lu = make([]float64, n*n)
		f.piv = make([]int, n)
		f.scratch = make([]float64, n)
	}
	f.n, f.sign = n, 1
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, maxv := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return nil
}

// SolveTo solves A·x = b into dst without allocating (after the first
// call); dst may alias b.
func (f *LU) SolveTo(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic("numeric: LU.SolveTo dimension mismatch")
	}
	n := f.n
	if f.scratch == nil {
		f.scratch = make([]float64, n)
	}
	// Gather through the pivot permutation via scratch so dst may alias b.
	for i := 0; i < n; i++ {
		f.scratch[i] = b[f.piv[i]]
	}
	x := dst
	copy(x, f.scratch)
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := f.lu[i*n+i+1 : i*n+n]
		for j, v := range row {
			s -= v * x[i+1+j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveDense solves A·x = b for a single right-hand side.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// BandMatrix is a square banded matrix with kl sub-diagonals and ku
// super-diagonals, stored row-major with kl extra slots per row for
// pivoting fill-in: row i occupies data[i*ld : (i+1)*ld] and holds
// columns i−kl … i+ku+kl, so the factorization and solve inner loops
// stream contiguous memory. Interconnect ladders produce tridiagonal-ish
// MNA systems; the band solver keeps large segment counts cheap.
type BandMatrix struct {
	N, KL, KU int
	data      []float64
	ld        int // leading dimension = 2*kl+ku+1
}

// NewBandMatrix returns a zero n×n band matrix with bandwidths kl, ku.
func NewBandMatrix(n, kl, ku int) *BandMatrix {
	if n <= 0 || kl < 0 || ku < 0 || kl >= n || ku >= n {
		panic(fmt.Sprintf("numeric: invalid band dims n=%d kl=%d ku=%d", n, kl, ku))
	}
	ld := 2*kl + ku + 1
	return &BandMatrix{N: n, KL: kl, KU: ku, ld: ld, data: make([]float64, ld*n)}
}

func (b *BandMatrix) idx(i, j int) int {
	// Row-major band: row i, offset j-i+kl within the row.
	return i*b.ld + j - i + b.KL
}

// InBand reports whether (i,j) lies within the declared bandwidth.
func (b *BandMatrix) InBand(i, j int) bool {
	return i >= 0 && j >= 0 && i < b.N && j < b.N && j-i <= b.KU && i-j <= b.KL
}

// At returns element (i,j); elements outside the band are zero.
func (b *BandMatrix) At(i, j int) float64 {
	if !b.InBand(i, j) {
		return 0
	}
	return b.data[b.idx(i, j)]
}

// Set assigns element (i,j); it panics outside the band.
func (b *BandMatrix) Set(i, j int, v float64) {
	if !b.InBand(i, j) {
		panic(fmt.Sprintf("numeric: band element (%d,%d) outside kl=%d ku=%d", i, j, b.KL, b.KU))
	}
	b.data[b.idx(i, j)] = v
}

// Add accumulates v into element (i,j); it panics outside the band.
func (b *BandMatrix) Add(i, j int, v float64) {
	if !b.InBand(i, j) {
		panic(fmt.Sprintf("numeric: band element (%d,%d) outside kl=%d ku=%d", i, j, b.KL, b.KU))
	}
	b.data[b.idx(i, j)] += v
}

// Zero resets all stored elements.
func (b *BandMatrix) Zero() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// Clone returns a deep copy.
func (b *BandMatrix) Clone() *BandMatrix {
	c := NewBandMatrix(b.N, b.KL, b.KU)
	copy(c.data, b.data)
	return c
}

// Dense expands the band matrix to a dense Matrix (for tests and small n).
func (b *BandMatrix) Dense() *Matrix {
	m := NewMatrix(b.N, b.N)
	for i := 0; i < b.N; i++ {
		lo := i - b.KL
		if lo < 0 {
			lo = 0
		}
		hi := i + b.KU
		if hi >= b.N {
			hi = b.N - 1
		}
		for j := lo; j <= hi; j++ {
			m.Set(i, j, b.At(i, j))
		}
	}
	return m
}

// MulVec computes y = b·x.
func (b *BandMatrix) MulVec(x []float64) []float64 {
	y := make([]float64, b.N)
	b.MulVecTo(y, x)
	return y
}

// MulVecTo computes dst = b·x without allocating; dst must not alias x.
func (b *BandMatrix) MulVecTo(dst, x []float64) {
	if len(x) != b.N || len(dst) != b.N {
		panic("numeric: band MulVecTo dimension mismatch")
	}
	n, kl, ku, ld := b.N, b.KL, b.KU, b.ld
	data := b.data
	if kl == 1 && ku == 1 && n > 1 {
		// Tridiagonal fast path — the shape RCM produces for interconnect
		// ladders. Row i's three entries are contiguous at data[i*ld];
		// the x window slides in registers.
		xm, xc := x[0], x[1]
		dst[0] = math.FMA(data[1], xm, data[2]*xc)
		for i := 1; i < n-1; i++ {
			xp := x[i+1]
			d := data[i*ld : i*ld+3]
			dst[i] = math.FMA(d[0], xm, math.FMA(d[1], xc, d[2]*xp))
			xm, xc = xc, xp
		}
		dst[n-1] = math.FMA(data[(n-1)*ld], xm, data[(n-1)*ld+1]*xc)
		return
	}
	for i := 0; i < n; i++ {
		lo := i - kl
		if lo < 0 {
			lo = 0
		}
		hi := i + ku
		if hi >= n {
			hi = n - 1
		}
		base := i*(ld-1) + kl
		row := data[base+lo : base+hi+1]
		xs := x[lo : hi+1]
		xs = xs[:len(row)]
		s := 0.0
		for j, v := range row {
			s += v * xs[j]
		}
		dst[i] = s
	}
}

// BandLU is an LU factorization with partial pivoting of a BandMatrix.
type BandLU struct {
	n, kl, ku int
	ld        int
	ubw       int // actual U bandwidth: ku if no pivoting occurred, else ku+kl
	data      []float64
	invd      []float64 // reciprocals of the U diagonal
	piv       []int
}

// FactorBandLU factors the band matrix; a is not modified.
func FactorBandLU(a *BandMatrix) (*BandLU, error) {
	f := &BandLU{}
	if err := FactorBandLUInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorBandLUInto factors the band matrix into f, reusing f's storage
// when its shape matches a previous factorization of the same
// dimensions — repeated factorizations then allocate nothing. a is not
// modified.
func FactorBandLUInto(f *BandLU, a *BandMatrix) error {
	if faultinject.Active {
		if err := faultinject.Inject(faultinject.SiteFactor); err != nil {
			return err
		}
	}
	n, kl, ku := a.N, a.KL, a.KU
	if len(f.data) != len(a.data) || len(f.piv) != n {
		f.data = make([]float64, len(a.data))
		f.invd = make([]float64, n)
		f.piv = make([]int, n)
	}
	f.n, f.kl, f.ku, f.ld = n, kl, ku, a.ld
	copy(f.data, a.data)
	data, ld := f.data, f.ld
	// U's bandwidth only grows beyond ku when a row interchange actually
	// happens; tracking it keeps the elimination and back substitution
	// from scanning structurally zero fill slots.
	ubw := ku
	for k := 0; k < n; k++ {
		// Pivot search within the kl sub-diagonals of column k.
		p, maxv := k, math.Abs(data[k*ld+kl])
		iMax := k + kl
		if iMax >= n {
			iMax = n - 1
		}
		for i := k + 1; i <= iMax; i++ {
			if v := math.Abs(data[i*(ld-1)+kl+k]); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return ErrSingular
		}
		f.piv[k] = p
		if p != k {
			ubw = ku + kl
		}
		jMax := k + ubw
		if jMax >= n {
			jMax = n - 1
		}
		rowk := data[k*(ld-1)+kl:]
		if p != k {
			rowp := data[p*(ld-1)+kl:]
			for j := k; j <= jMax; j++ {
				rowp[j], rowk[j] = rowk[j], rowp[j]
			}
		}
		pivot := rowk[k]
		f.invd[k] = 1 / pivot
		for i := k + 1; i <= iMax; i++ {
			rowi := data[i*(ld-1)+kl:]
			m := rowi[k] / pivot
			rowi[k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j <= jMax; j++ {
				rowi[j] -= m * rowk[j]
			}
		}
	}
	f.ubw = ubw
	// Prescale U's off-diagonal entries by the diagonal reciprocals:
	// back substitution then reads x[i] = x[i]·invd[i] − Σ u'·x[j] with
	// the reciprocal multiply off the row-to-row dependency chain.
	for i := 0; i < n; i++ {
		jMax := i + ubw
		if jMax >= n {
			jMax = n - 1
		}
		inv := f.invd[i]
		row := data[i*(ld-1)+kl:]
		for j := i + 1; j <= jMax; j++ {
			row[j] *= inv
		}
	}
	return nil
}

// Solve solves A·x = b from the band factorization; b is not modified.
func (f *BandLU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into dst without allocating; dst may alias b.
func (f *BandLU) SolveTo(dst, b []float64) {
	if len(b) != f.n || len(dst) != f.n {
		panic("numeric: BandLU.SolveTo dimension mismatch")
	}
	if &dst[0] != &b[0] {
		copy(dst, b)
	}
	f.SolveInPlace(dst)
}

// SolveInPlace solves A·x = b, overwriting the right-hand side x with
// the solution. It performs no heap allocations.
func (f *BandLU) SolveInPlace(x []float64) {
	if len(x) != f.n {
		panic("numeric: BandLU.SolveInPlace dimension mismatch")
	}
	n, kl, ld := f.n, f.kl, f.ld
	data, invd := f.data, f.invd
	// The row-to-row dependency chains dominate the solve's latency on
	// narrow bands, so the hot paths below keep each chain link to a
	// single fused multiply-add: U's off-diagonals are prescaled by the
	// diagonal reciprocals at factor time, the reciprocal multiply runs
	// off-chain, and math.FMA compiles to one 4-cycle instruction.
	if kl == 1 && f.ku == 1 && n > 2 {
		// Tridiagonal fast path: L is unit lower bidiagonal with (only
		// ever adjacent) row interchanges, U has one superdiagonal plus a
		// second one where pivoting filled in. The running value is
		// carried in a register so each chain link is exactly one FMA.
		piv := f.piv
		v := x[0]
		for k := 0; k+1 < n; k++ {
			w := x[k+1]
			l := data[(k+1)*ld]
			if piv[k] != k {
				x[k] = w
				v = math.FMA(-l, w, v)
			} else {
				v = math.FMA(-l, v, w)
			}
			x[k+1] = v
		}
		vp := x[n-1] * invd[n-1]
		x[n-1] = vp
		v = math.FMA(-data[(n-2)*ld+2], vp, x[n-2]*invd[n-2])
		x[n-2] = v
		if f.ubw == 1 {
			for i := n - 3; i >= 0; i-- {
				v = math.FMA(-data[i*ld+2], v, x[i]*invd[i])
				x[i] = v
			}
		} else {
			for i := n - 3; i >= 0; i-- {
				t := math.FMA(-data[i*ld+3], vp, x[i]*invd[i])
				nv := math.FMA(-data[i*ld+2], v, t)
				x[i] = nv
				vp, v = v, nv
			}
		}
		return
	}
	// Apply row interchanges and forward substitution with unit L.
	for k := 0; k < n; k++ {
		if p := f.piv[k]; p != k {
			x[p], x[k] = x[k], x[p]
		}
		iMax := k + kl
		if iMax >= n {
			iMax = n - 1
		}
		xk := x[k]
		if xk == 0 {
			continue
		}
		off := (k+1)*(ld-1) + kl + k
		for i := k + 1; i <= iMax; i++ {
			x[i] = math.FMA(-data[off], xk, x[i])
			off += ld - 1
		}
	}
	// Back substitution with prescaled U (bandwidth f.ubw ≤ ku+kl).
	ubw := f.ubw
	for i := n - 1; i >= 0; i-- {
		jMax := i + ubw
		if jMax >= n {
			jMax = n - 1
		}
		base := i*(ld-1) + kl
		row := data[base+i+1 : base+jMax+1]
		xs := x[i+1 : jMax+1]
		xs = xs[:len(row)]
		s := x[i] * invd[i]
		for j, v := range row {
			s = math.FMA(-v, xs[j], s)
		}
		x[i] = s
	}
}

// VecNormInf returns max_i |x[i]|.
func VecNormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// VecNorm2 returns the Euclidean norm of x.
func VecNorm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: Dot dimension mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
