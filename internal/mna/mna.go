// Package mna is rlckit's dynamic circuit simulator — the stand-in for
// the proprietary AS/X simulator the paper validates against.
//
// It assembles lumped linear circuits (internal/circuit) into the
// Modified Nodal Analysis form
//
//	C·dx/dt + G·x = b(t)
//
// where x stacks the non-ground node voltages and one branch current per
// inductor and per voltage source. Transient analysis integrates this DAE
// with the trapezoidal rule (default; A-stable, second order, the classic
// SPICE choice) or backward Euler (first order, strongly damping — useful
// as a cross-check and for taming startup transients).
//
// The transient picks its linear solver from the structure of C + G.
// When that structure is a forest with a branching vertex — every RLC
// tree: node voltages, R–L mid nodes and branch currents — the step
// matrix is factored by numeric's no-fill tree LU, eliminating leaves
// towards a root at the source's branch-current row, and each timestep
// costs two O(n) sweeps. Any other system (a path, which is every
// ladder and is already tridiagonal; anything with a cycle, such as
// mutual inductance or coupled lines) is reordered with reverse
// Cuthill–McKee and factored as a narrow band matrix with partial
// pivoting, so a 1000-segment RLC line steps in O(n) per timestep
// rather than O(n²). A tree whose static pivot is too small for the
// tree LU (a capless inductive leaf) falls back to the band solver.
// AC analysis and model-order reduction always use the band solver.
//
// Complexity contract: the whole pipeline is linear in circuit size.
// Assembly stamps the circuit into sparse triplets; the forest check
// and its elimination order, the RCM ordering and the band and tree
// matrices are all derived from the triplets in O(nnz) time, with
// O(n) memory on the tree path and O(n·band) on the band path, and no
// n×n intermediate is ever materialized. RCM and band stamping run
// only when a band factor is needed: a tree transient whose sources
// are all zero at t = 0 (every delay engine's) factors nothing but its
// step matrix. The transient step loop reuses all scratch and performs
// zero heap allocations per timestep, and AC sweeps solve frequency
// points in parallel across a bounded worker pool.
//
// Crossing mode: a delay only needs each probe's first upward crossing
// of a level (the paper's 50% point), not its waveform. With
// Options.CrossLevel set, Simulate, Frozen.Simulate and
// Reduced.Simulate read the crossings inside the step loop, keep no
// waveform, and stop as soon as every probe has crossed; TEnd is then
// only a step budget. The run's memory is independent of its step
// count, and the crossings are bit-identical to reading them off the
// recorded waveform of a run to any longer horizon.
package mna

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rlckit/internal/cancel"
	"rlckit/internal/circuit"
	"rlckit/internal/numeric"
	"rlckit/internal/waveform"
)

// Method selects the integration rule.
type Method int

// Integration methods.
const (
	Trapezoidal Method = iota
	BackwardEuler
)

func (m Method) String() string {
	switch m {
	case Trapezoidal:
		return "trapezoidal"
	case BackwardEuler:
		return "backward-euler"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a transient run.
type Options struct {
	// Method is the integration rule (default Trapezoidal).
	Method Method
	// Dt is the fixed time step; required, must be positive.
	Dt float64
	// TEnd is the end time; required, must exceed Dt.
	TEnd float64
	// Probes lists node IDs whose voltages are recorded (in crossing
	// mode, watched) every step.
	Probes []int
	// Ctx, when non-nil, cancels the transient: Simulate checks it
	// every ctxStride timesteps and returns cancel.ErrCanceled /
	// ErrDeadline once it is done.
	Ctx context.Context
	// CrossLevel, when nonzero, selects crossing mode: each probe's
	// first upward crossing of CrossLevel is read inside the step loop
	// into Result.Crossings, no waveform is kept, and the run stops once
	// every probe has crossed. TEnd becomes a budget: a probe still
	// below the level at TEnd fails the run with ErrNoCrossing.
	CrossLevel float64
}

// CrossBudget is the delay engines' crossing-mode budget for a
// transient planned to end at tEnd: the plan extended three times by
// 2.5×, one factor at a time, so the budget — and with it the step
// count — has fixed bits.
func CrossBudget(tEnd float64) float64 {
	for i := 0; i < 3; i++ {
		tEnd *= 2.5
	}
	return tEnd
}

// ErrNoCrossing reports a crossing-mode run whose step budget ran out
// before every probe crossed the level.
var ErrNoCrossing = errors.New("mna: step budget exhausted before every probe crossed the level")

// ctxStride is the transient cancellation checkpoint interval: one
// context check per 64-step chunk (tens of microseconds of compute on
// the tree-sized systems) keeps checkpoint overhead unmeasurable while
// bounding cancellation latency well below a millisecond of work.
const ctxStride = 64

// Result holds a transient analysis record.
type Result struct {
	Time  []float64
	probe map[int][]float64
	// Crossings holds, in crossing mode, each probe's first upward
	// crossing time in Options.Probes order (Time and the waveforms are
	// then empty).
	Crossings []float64
	// Final is the full final state vector (node voltages then branch
	// currents) in original (pre-permutation) order.
	Final []float64
}

// V returns the recorded voltage samples for a probed node.
func (r *Result) V(node int) ([]float64, error) {
	s, ok := r.probe[node]
	if !ok {
		return nil, fmt.Errorf("mna: node %d was not probed", node)
	}
	return s, nil
}

// Waveform returns the recorded voltage at a probed node as a waveform.
func (r *Result) Waveform(node int) (*waveform.W, error) {
	y, err := r.V(node)
	if err != nil {
		return nil, err
	}
	return waveform.New(r.Time, y)
}

// system is the assembled MNA description prior to integration. G and C
// are kept as sparse triplets — O(nnz) storage — and stamped straight
// into band matrices on demand.
type system struct {
	n      int // total unknowns
	nv     int // node-voltage unknowns (circuit nodes minus ground)
	gt, ct *numeric.Triplets
	// ge, ce record the element index that produced each triplet entry
	// (mutual couplings map to their first inductor) — the provenance
	// the reduced-order class projection groups by.
	ge, ce  []int
	sources []srcEntry // contributions to b(t)
	// forest is the tree LU's elimination order when the structure is a
	// branching forest (computeStepOrdering), else nil.
	forest *numeric.Forest
	perm   []int // perm[orig] = new index, after RCM (nil until computeOrdering)
	inv    []int // inv[new] = orig
	kl, ku int
}

type srcEntry struct {
	row int // row in b (original ordering)
	src circuit.Source
	sgn float64
}

// assemble builds G, C and the source table from the circuit and
// computes the band (RCM) ordering.
func assemble(ckt *circuit.Circuit) (*system, error) {
	s, err := assembleCore(ckt)
	if err != nil {
		return nil, err
	}
	s.computeOrdering()
	return s, nil
}

// assembleCore stamps G, C and the source table without computing an
// ordering — re-assemblies of an unchanged topology (Monte Carlo
// perturbations evaluated through a frozen reduced-order basis) borrow
// the reference system's ordering instead of re-running RCM.
func assembleCore(ckt *circuit.Circuit) (*system, error) {
	if err := ckt.Validate(); err != nil {
		return nil, err
	}
	nv := ckt.Nodes() - 1 // exclude ground
	nbr := 0
	for _, e := range ckt.Elements() {
		if e.Kind == circuit.KindInductor || e.Kind == circuit.KindVSource {
			nbr++
		}
	}
	n := nv + nbr
	s := &system{n: n, nv: nv, gt: numeric.NewTriplets(n), ct: numeric.NewTriplets(n)}
	// Node v index: node i (1-based) → i-1. Ground contributes nothing.
	vi := func(node int) int { return node - 1 }
	br := nv
	// branchOf[elementIndex] = branch unknown index (inductors only).
	branchOf := make(map[int]int)
	for ei, e := range ckt.Elements() {
		g0, c0 := s.gt.NNZ(), s.ct.NNZ()
		a, b := e.A, e.B
		switch e.Kind {
		case circuit.KindResistor:
			gg := 1 / e.Value
			stamp2(s.gt, vi(a), vi(b), gg, a, b)
		case circuit.KindCapacitor:
			stamp2(s.ct, vi(a), vi(b), e.Value, a, b)
		case circuit.KindInductor:
			j := br
			br++
			branchOf[ei] = j
			// KCL: current j leaves a, enters b.
			if a != circuit.Ground {
				s.gt.Add(vi(a), j, 1)
			}
			if b != circuit.Ground {
				s.gt.Add(vi(b), j, -1)
			}
			// Branch: v_a − v_b − L·dj/dt = 0.
			if a != circuit.Ground {
				s.gt.Add(j, vi(a), 1)
			}
			if b != circuit.Ground {
				s.gt.Add(j, vi(b), -1)
			}
			s.ct.Add(j, j, -e.Value)
		case circuit.KindVSource:
			j := br
			br++
			if a != circuit.Ground {
				s.gt.Add(vi(a), j, 1)
			}
			if b != circuit.Ground {
				s.gt.Add(vi(b), j, -1)
			}
			if a != circuit.Ground {
				s.gt.Add(j, vi(a), 1)
			}
			if b != circuit.Ground {
				s.gt.Add(j, vi(b), -1)
			}
			s.sources = append(s.sources, srcEntry{row: j, src: e.Src, sgn: 1})
		case circuit.KindISource:
			// Current flows from b into a: KCL source terms.
			if a != circuit.Ground {
				s.sources = append(s.sources, srcEntry{row: vi(a), src: e.Src, sgn: 1})
			}
			if b != circuit.Ground {
				s.sources = append(s.sources, srcEntry{row: vi(b), src: e.Src, sgn: -1})
			}
		}
		for k := g0; k < s.gt.NNZ(); k++ {
			s.ge = append(s.ge, ei)
		}
		for k := c0; k < s.ct.NNZ(); k++ {
			s.ce = append(s.ce, ei)
		}
	}
	// Mutual inductances couple the branch equations:
	// row j1 gains −M·dj2/dt and row j2 gains −M·dj1/dt, matching the
	// −L self terms' sign convention.
	for _, m := range ckt.Mutuals() {
		j1, ok1 := branchOf[m.L1]
		j2, ok2 := branchOf[m.L2]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("mna: coupling %q references non-inductor elements", m.Name)
		}
		c0 := s.ct.NNZ()
		s.ct.Add(j1, j2, -m.M)
		s.ct.Add(j2, j1, -m.M)
		for k := c0; k < s.ct.NNZ(); k++ {
			s.ce = append(s.ce, m.L1)
		}
	}
	return s, nil
}

// stamp2 applies the standard two-terminal conductance/capacitance stamp.
// ia, ib are unknown indices (or negative via ground check using raw node
// numbers a, b).
func stamp2(m *numeric.Triplets, ia, ib int, v float64, a, b int) {
	if a != circuit.Ground {
		m.Add(ia, ia, v)
	}
	if b != circuit.Ground {
		m.Add(ib, ib, v)
	}
	if a != circuit.Ground && b != circuit.Ground {
		m.Add(ia, ib, -v)
		m.Add(ib, ia, -v)
	}
}

// computeStepOrdering picks the ordering a transient steps in: the
// tree LU's leaves-first order when the structure of |G|+|C| is a
// forest with a vertex of degree ≥ 3, else RCM. A path (every ladder)
// keeps RCM, which makes it tridiagonal for the band solver's fast
// path, and pays only the branching check; a cycle has fill, which
// only the band solver handles.
func (s *system) computeStepOrdering() {
	if numeric.Branching(s.n, s.gt, s.ct) {
		if f := numeric.ForestOrder(s.n, s.gt, s.ct); f != nil {
			s.forest = f
			return
		}
	}
	s.computeOrdering()
}

// computeOrdering runs reverse Cuthill–McKee on the structure of |G|+|C|
// to minimize bandwidth, then records the band widths. The adjacency
// lists, the ordering, and the band widths are all derived from the
// triplets in O(nnz) — no dense scan anywhere.
func (s *system) computeOrdering() {
	adj := numeric.Adjacency(s.n, s.gt, s.ct)
	s.inv = numeric.RCM(adj) // inv[new] = orig
	s.perm = make([]int, s.n)
	for newIdx, orig := range s.inv {
		s.perm[orig] = newIdx
	}
	s.kl, s.ku = numeric.PermutedBandwidth(s.perm, s.gt, s.ct)
}

// passiveTriplets returns copies of G and C with every branch-equation
// row (rows nv…n-1: inductor and voltage-source constraints) negated —
// the PRIMA passive form C = diag(node caps, +L), G + Gᵀ ⪰ 0 that the
// model-order reduction projects (reduced.go). Solutions are identical
// to the original convention's; only the row scaling differs.
func (s *system) passiveTriplets() (gt, ct *numeric.Triplets) {
	flip := func(t *numeric.Triplets) *numeric.Triplets {
		out := &numeric.Triplets{
			N: t.N,
			I: t.I, J: t.J, // structure is shared read-only
			V: append([]float64(nil), t.V...),
		}
		for k, i := range t.I {
			if i >= s.nv {
				out.V[k] = -out.V[k]
			}
		}
		return out
	}
	return flip(s.gt), flip(s.ct)
}

// permuted returns band copies of G and C in the RCM ordering, stamped
// directly from the triplets in O(nnz).
func (s *system) permuted() (gb, cb *numeric.BandMatrix) {
	gb = numeric.NewBandMatrix(s.n, s.kl, s.ku)
	cb = numeric.NewBandMatrix(s.n, s.kl, s.ku)
	s.gt.AddScaledToBand(gb, s.perm, 1)
	s.ct.AddScaledToBand(cb, s.perm, 1)
	return gb, cb
}

// stepMatrix is a factored transient left matrix and the ordering its
// solver works in (perm[orig] = index, inv[index] = orig).
type stepMatrix struct {
	perm, inv []int
	a         interface{ MulVecTo(dst, x []float64) }
	lu        interface{ SolveTo(dst, b []float64) }
}

// factorStep stamps the transient left matrix A = C/h + G/2 (C/h + G
// under backward Euler) from the triplets in O(nnz) and factors it: on
// a forest with the no-fill tree LU, else — or when a static pivot is
// too small for it (numeric.ErrSingular) — with band LU in RCM order.
func (s *system) factorStep(h float64, be bool) (*stepMatrix, error) {
	gScale := 0.5
	if be {
		gScale = 1
	}
	if s.forest != nil {
		a := numeric.NewTreeMatrix(s.forest)
		s.ct.AddScaledToTree(a, 1/h)
		s.gt.AddScaledToTree(a, gScale)
		lu, err := numeric.FactorTreeLU(a)
		if err == nil {
			return &stepMatrix{perm: s.forest.Perm, inv: s.forest.Inv, a: a, lu: lu}, nil
		}
		if !errors.Is(err, numeric.ErrSingular) {
			return nil, fmt.Errorf("mna: transient matrix is singular (dt=%g): %w", h, err)
		}
	}
	if s.perm == nil {
		s.computeOrdering()
	}
	a := numeric.NewBandMatrix(s.n, s.kl, s.ku)
	s.ct.AddScaledToBand(a, s.perm, 1/h)
	s.gt.AddScaledToBand(a, s.perm, gScale)
	lu, err := numeric.FactorBandLU(a)
	if err != nil {
		return nil, fmt.Errorf("mna: transient matrix is singular (dt=%g): %w", h, err)
	}
	return &stepMatrix{perm: s.perm, inv: s.inv, a: a, lu: lu}, nil
}

// dcPoint writes the t = 0 operating point into x, in the ordering
// perm, and reports whether it solved for one. When b(0) is identically
// zero — every delay engine's case, since each delays its source step —
// x = 0 is exact whether or not G is singular, and nothing is factored.
// Otherwise it solves G·x = b(0) with band LU in RCM order, leaving the
// circuit at rest when G is singular; any other factorization error
// (an injected fault) fails the run.
func (s *system) dcPoint(x []float64, perm []int) (bool, error) {
	zero := true
	for _, e := range s.sources {
		zero = zero && e.src.V(0) == 0
	}
	if zero {
		return false, nil
	}
	if s.perm == nil {
		s.computeOrdering()
	}
	b := make([]float64, s.n)
	for _, e := range s.sources {
		b[s.perm[e.row]] += e.sgn * e.src.V(0)
	}
	gb := numeric.NewBandMatrix(s.n, s.kl, s.ku)
	s.gt.AddScaledToBand(gb, s.perm, 1)
	lu, err := numeric.FactorBandLU(gb)
	if errors.Is(err, numeric.ErrSingular) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("mna: operating point: %w", err)
	}
	lu.SolveInPlace(b)
	for orig, i := range s.perm {
		x[perm[orig]] = b[i]
	}
	return true, nil
}

// Simulate runs a fixed-step transient analysis.
func Simulate(ckt *circuit.Circuit, opts Options) (*Result, error) {
	sys, err := assembleCore(ckt)
	if err != nil {
		return nil, err
	}
	sys.computeStepOrdering()
	return simulateSys(sys, ckt.Nodes(), opts)
}

// simulateSys is Simulate on an already-assembled system: the shared
// core of the cold path (stamp + step ordering) and the frozen path
// (Frozen.Restamp = stamp only, borrowing a previous ordering). Both
// run the identical step loop on the identical ordering, so for the
// same circuit values they produce bit-identical results.
func simulateSys(sys *system, nNodes int, opts Options) (*Result, error) {
	if opts.Dt <= 0 {
		return nil, errors.New("mna: Options.Dt must be positive")
	}
	if opts.TEnd <= opts.Dt {
		return nil, fmt.Errorf("mna: TEnd (%g) must exceed Dt (%g)", opts.TEnd, opts.Dt)
	}
	for _, p := range opts.Probes {
		if p <= 0 || p >= nNodes {
			return nil, fmt.Errorf("mna: probe node %d out of range (ground cannot be probed)", p)
		}
	}
	h := opts.Dt
	steps := int(math.Ceil(opts.TEnd / h))
	n := sys.n
	be := opts.Method == BackwardEuler

	// Left matrix A per method:
	//   trapezoidal: A = C/h + G/2,  rhs = (C/h − G/2)x + (b_n + b_{n+1})/2
	//   BE:          A = C/h + G,    rhs = (C/h)x + b_{n+1}
	// The right matrix (C/h − G/2 resp. C/h) is never materialized: with
	// Bm = 2C/h − A (trapezoidal) the step right-hand side is built from
	// C alone — mostly diagonal in MNA, with off-diagonal entries only
	// from floating capacitors and mutual inductances — and the previous
	// step's right-hand side (= A·x).
	st, err := sys.factorStep(h, be)
	if err != nil {
		return nil, err
	}
	perm := st.perm
	// Permuted C split into its diagonal and off-diagonal entries, scaled
	// by 2/h (trapezoidal) or 1/h (BE).
	cScale := 2 / h
	if be {
		cScale = 1 / h
	}
	cdiag := make([]float64, n)
	type cOff struct {
		i, j int
		v    float64
	}
	var coff []cOff
	for k, i := range sys.ct.I {
		pi, pj := perm[i], perm[sys.ct.J[k]]
		v := sys.ct.V[k] * cScale
		if pi == pj {
			cdiag[pi] += v
		} else {
			coff = append(coff, cOff{pi, pj, v})
		}
	}

	// Initial state, and the trapezoidal rule's first rhs_prev = A·x(0).
	x := make([]float64, n)
	rhs := make([]float64, n)
	rhsPrev := make([]float64, n)
	dc, err := sys.dcPoint(x, perm)
	if err != nil {
		return nil, err
	}
	if dc && !be {
		st.a.MulVecTo(rhsPrev, x)
	}

	// Probe state is resolved up front (permuted index → sample slot) so
	// the recording done every timestep touches no maps and allocates
	// nothing.
	rec := newRecorder(opts, steps)
	probeAt := make([]int, len(opts.Probes))
	for k, p := range opts.Probes {
		probeAt[k] = perm[p-1]
	}
	record := func(t float64) {
		for k, pi := range probeAt {
			rec.y[k] = x[pi]
		}
		rec.record(t)
	}
	record(0)

	// Steady-state step loop: every vector is reused, the solve writes
	// over the state in place, and the source contributions touch only
	// the source rows — O(#sources), not O(n) — so each timestep performs
	// zero heap allocations. For the trapezoidal rule the right-hand side
	// is rebuilt as 2(C/h)·x − rhs_prev + b̄, where rhs_prev (= A·x up to
	// the solve's residual) is the vector the previous step solved with;
	// for BE it is simply (C/h)·x + b.
	srcRow := make([]int, len(sys.sources))
	vPrev := make([]float64, len(sys.sources))
	for k, e := range sys.sources {
		srcRow[k] = perm[e.row]
		vPrev[k] = e.src.V(0)
	}
	t := 0.0
	for s := 0; s < steps && !rec.crossed(); s++ {
		if s%ctxStride == 0 {
			if cerr := cancel.Check(opts.Ctx); cerr != nil {
				return nil, cerr
			}
		}
		t1 := t + h
		if be {
			for i, c := range cdiag {
				rhs[i] = c * x[i]
			}
		} else {
			for i, c := range cdiag {
				rhs[i] = math.FMA(c, x[i], -rhsPrev[i])
			}
		}
		for _, e := range coff {
			rhs[e.i] += e.v * x[e.j]
		}
		if be {
			for k, e := range sys.sources {
				rhs[srcRow[k]] += e.sgn * e.src.V(t1)
			}
		} else {
			for k, e := range sys.sources {
				v1 := e.src.V(t1)
				rhs[srcRow[k]] += e.sgn * (vPrev[k] + v1) / 2
				vPrev[k] = v1
			}
		}
		st.lu.SolveTo(x, rhs)
		rhs, rhsPrev = rhsPrev, rhs
		t = t1
		record(t)
	}
	res, err := rec.result(opts.Probes, steps)
	if err != nil {
		return nil, err
	}

	// Final state in original ordering.
	res.Final = make([]float64, n)
	for newIdx, orig := range st.inv {
		res.Final[orig] = x[newIdx]
	}
	return res, nil
}

// Bandwidth reports the (kl, ku) band widths the RCM ordering achieves
// for the circuit — an observability hook for the ladder benchmarks.
func Bandwidth(ckt *circuit.Circuit) (kl, ku int, err error) {
	sys, err := assemble(ckt)
	if err != nil {
		return 0, 0, err
	}
	return sys.kl, sys.ku, nil
}
