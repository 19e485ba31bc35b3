package mna

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"rlckit/internal/cancel"
	"rlckit/internal/circuit"
	"rlckit/internal/mor"
	"rlckit/internal/numeric"
)

// This file is the MNA-side face of the Krylov model-order reduction
// engine (internal/mor): Reduce compresses an assembled circuit into a
// reusable q×q model, Reduced.AC and Reduced.Simulate evaluate it, and
// ACReduced is the drop-in fast path for AC — reduce once, evaluate
// every frequency point against the tiny model, fall back to the exact
// band engine whenever the reduction cannot certify itself.

// ReduceOptions tunes Reduce. Freqs is required: the probe/validation
// grid (Hz, ascending, positive) over which the reduced model must
// reproduce the exact transfer function.
type ReduceOptions struct {
	// Freqs are the probe/validation frequencies in Hz.
	Freqs []float64
	// MaxOrder caps the reduced order (default 32).
	MaxOrder int
	// Tol and ValTol are the convergence and validation tolerances
	// (defaults 5e-4 and 5e-3; see mor.Options).
	Tol, ValTol float64
	// SkipValidate skips the exact-solve certification.
	SkipValidate bool
	// Anchors are same-topology instances of the circuit (typically
	// process-corner extremes) whose Krylov chains join the basis, so
	// that any instance inside the bracketed parameter range can later
	// be evaluated through the frozen basis (Reproject /
	// SetClassWeights) without losing accuracy. Each anchor is also
	// exactly validated.
	Anchors []*circuit.Circuit
	// Ctx, when non-nil, cancels the build between Arnoldi growth
	// rounds (see mor.Options.Ctx).
	Ctx context.Context
	// Pencil, when non-nil, is a serialized certified model from a
	// previous identical Reduce (mor.EncodeModel bytes, e.g. out of the
	// warm-start store). It is used instead of running the Arnoldi
	// build only when its embedded fingerprint matches the system and
	// options assembled here — a stale or mis-keyed pencil silently
	// falls through to a fresh build, never a wrong model.
	Pencil []byte
	// OnBuild, when non-nil, receives the serialized model after a
	// successful fresh build (not after a Pencil reuse), so callers can
	// persist it for the next identical Reduce.
	OnBuild func(pencil []byte)
}

// Reduced is a circuit compressed to a reduced-order model, plus the
// bookkeeping to drive it with the circuit's sources and read its
// probed nodes.
type Reduced struct {
	sys    *system
	model  *mor.Model
	probes []int // node IDs, in output order
	// gt, ct are the build-time passive-form triplets (class splitting
	// reads their values and the provenance arrays in sys).
	gt, ct *numeric.Triplets
	// Per-class congruence blocks (ProjectClasses) and the combine
	// scratch (SetClassWeights).
	gBlocks, cBlocks []*numeric.Matrix
	combG, combC     []float64
}

// Reduce assembles the circuit and builds a moment-matching reduced
// model observing the given probe nodes. Any certification failure
// surfaces as an error (wrapping mor.ErrNoConverge when the cause is
// accuracy); callers fall back to the exact engine.
func Reduce(ckt *circuit.Circuit, probes []int, opt ReduceOptions) (*Reduced, error) {
	if len(probes) == 0 {
		return nil, errors.New("mna: Reduce needs at least one probe node")
	}
	sys, err := assemble(ckt)
	if err != nil {
		return nil, err
	}
	outputs := make([]int, len(probes))
	for i, p := range probes {
		if p <= 0 || p >= ckt.Nodes() {
			return nil, fmt.Errorf("mna: probe node %d out of range (ground cannot be probed)", p)
		}
		outputs[i] = sys.perm[p-1]
	}
	if len(sys.sources) == 0 {
		return nil, errors.New("mna: Reduce needs at least one source")
	}
	// The reduction runs on the PRIMA passive form: every branch
	// equation row (inductors and voltage sources, rows nv…n-1) is
	// negated, making C = diag(node caps, +L) symmetric PSD and
	// G + Gᵀ PSD. Row scaling leaves every solution — and therefore the
	// transfer function — untouched, but the congruence projection of
	// the passive form is provably stable and passive, where projecting
	// the raw −L convention produces unstable spurious modes that wreck
	// the reduced transient.
	gt, ct := sys.passiveTriplets()
	inputs := make([]mor.InputCol, len(sys.sources))
	for i, e := range sys.sources {
		sgn := e.sgn
		if e.row >= sys.nv {
			sgn = -sgn
		}
		inputs[i] = mor.InputCol{Rows: []int{sys.perm[e.row]}, Vals: []float64{sgn}}
	}
	var anchors []mor.AnchorValues
	for i, ackt := range opt.Anchors {
		asys, err := assembleCore(ackt)
		if err != nil {
			return nil, fmt.Errorf("mna: anchor %d: %w", i, err)
		}
		if asys.n != sys.n || asys.gt.NNZ() != sys.gt.NNZ() || asys.ct.NNZ() != sys.ct.NNZ() {
			return nil, fmt.Errorf("mna: anchor %d is not the same topology", i)
		}
		asys.nv = sys.nv // passiveTriplets flips by row range
		agt, act := asys.passiveTriplets()
		anchors = append(anchors, mor.AnchorValues{G: agt.V, C: act.V})
	}
	omegas := make([]float64, len(opt.Freqs))
	for i, f := range opt.Freqs {
		omegas[i] = 2 * math.Pi * f
	}
	morSys := &mor.System{
		N: sys.n, KL: sys.kl, KU: sys.ku, Perm: sys.perm,
		G: gt, C: ct,
		Inputs: inputs, Outputs: outputs,
		Anchors: anchors,
	}
	morOpts := mor.Options{
		Omegas: omegas, MaxOrder: opt.MaxOrder,
		Tol: opt.Tol, ValTol: opt.ValTol, SkipValidate: opt.SkipValidate,
		Ctx: opt.Ctx,
	}
	// Pencil fast path: a persisted model whose fingerprint matches this
	// exact system+options stands in for the Arnoldi build. Any mismatch
	// or decode failure falls through to building fresh.
	var (
		model *mor.Model
		fp    uint64
		fpOK  bool
		err2  error
	)
	if opt.Pencil != nil || opt.OnBuild != nil {
		if v, ferr := mor.Fingerprint(morSys, morOpts); ferr == nil {
			fp, fpOK = v, true
		}
	}
	if fpOK && opt.Pencil != nil {
		if m, derr := mor.DecodeModel(opt.Pencil, fp); derr == nil {
			model = m
		}
	}
	if model == nil {
		model, err2 = mor.Build(morSys, morOpts)
		if err2 != nil {
			return nil, err2
		}
		if fpOK && opt.OnBuild != nil {
			opt.OnBuild(mor.EncodeModel(model, fp))
		}
	}
	return &Reduced{
		sys: sys, model: model, probes: append([]int(nil), probes...),
		gt: gt, ct: ct,
	}, nil
}

// Model exposes the underlying reduced-order model for callers that
// drive the transient directly (refeng's delay extraction).
func (r *Reduced) Model() *mor.Model { return r.model }

// OutputIndex maps a reduce-time probe node to its model output index.
func (r *Reduced) OutputIndex(node int) (int, error) {
	for k, p := range r.probes {
		if p == node {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mna: node %d was not probed at Reduce time", node)
}

// ProjectClasses precomputes per-class congruence blocks: classOf maps
// an element index (circuit.Elements order; mutual couplings map to
// their first inductor) to a class in [0, nClasses). Because the
// congruence projection is linear in the matrix values, a scalar
// class-scaled instance of the circuit then recombines its reduced
// pencil from these blocks in O(nClasses·q²) via SetClassWeights —
// with no re-assembly, no reprojection, nothing proportional to the
// full order n.
func (r *Reduced) ProjectClasses(nClasses int, classOf func(elem int) int) error {
	if nClasses < 1 {
		return errors.New("mna: ProjectClasses needs at least one class")
	}
	q := r.model.Q()
	r.gBlocks = make([]*numeric.Matrix, nClasses)
	r.cBlocks = make([]*numeric.Matrix, nClasses)
	mask := make([]float64, len(r.gt.V))
	split := func(vals []float64, prov []int, onC bool, dst []*numeric.Matrix) error {
		for c := 0; c < nClasses; c++ {
			mask := mask[:len(vals)]
			any := false
			for k := range vals {
				if classOf(prov[k]) == c {
					mask[k] = vals[k]
					any = true
				} else {
					mask[k] = 0
				}
			}
			dst[c] = numeric.NewMatrix(q, q)
			if !any {
				continue
			}
			if err := r.model.ProjectValues(mask, onC, dst[c]); err != nil {
				return err
			}
		}
		return nil
	}
	if cap(mask) < len(r.ct.V) {
		mask = make([]float64, len(r.ct.V))
	}
	if err := split(r.gt.V, r.sys.ge, false, r.gBlocks); err != nil {
		return err
	}
	if err := split(r.ct.V, r.sys.ce, true, r.cBlocks); err != nil {
		return err
	}
	r.combG = make([]float64, q*q)
	r.combC = make([]float64, q*q)
	return nil
}

// SetClassWeights installs the reduced pencil for a class-scaled
// instance: G̃ = Σ wG[c]·G̃_c, C̃ = Σ wC[c]·C̃_c over the ProjectClasses
// blocks. O(nClasses·q²); the next NewTransient / AC evaluation sees
// the combined pencil.
func (r *Reduced) SetClassWeights(wG, wC []float64) error {
	if r.gBlocks == nil {
		return errors.New("mna: SetClassWeights before ProjectClasses")
	}
	if len(wG) != len(r.gBlocks) || len(wC) != len(r.cBlocks) {
		return fmt.Errorf("mna: SetClassWeights needs %d weights", len(r.gBlocks))
	}
	for i := range r.combG {
		r.combG[i] = 0
		r.combC[i] = 0
	}
	for c, w := range wG {
		if w == 0 {
			continue
		}
		for i, v := range r.gBlocks[c].Data {
			r.combG[i] += w * v
		}
	}
	for c, w := range wC {
		if w == 0 {
			continue
		}
		for i, v := range r.cBlocks[c].Data {
			r.combC[i] += w * v
		}
	}
	return r.model.UsePencil(r.combG, r.combC)
}

// Info returns the model's accuracy metadata.
func (r *Reduced) Info() mor.Info { return r.model.Info }

// Reproject recomputes the reduced matrices through the frozen basis
// from a same-topology circuit (identical structure, perturbed values)
// — the Monte Carlo fast path. The probes and sources must be laid out
// exactly as in the reduce-time circuit.
func (r *Reduced) Reproject(ckt *circuit.Circuit) error {
	// Same topology ⇒ same structure ⇒ the frozen ordering still
	// applies; skip the RCM recomputation.
	sys, err := assembleCore(ckt)
	if err != nil {
		return err
	}
	if sys.n != r.sys.n || len(sys.sources) != len(r.sys.sources) {
		return fmt.Errorf("mna: reprojection topology mismatch (%d vs %d unknowns)", sys.n, r.sys.n)
	}
	sys.perm, sys.inv, sys.kl, sys.ku = r.sys.perm, r.sys.inv, r.sys.kl, r.sys.ku
	gt, ct := sys.passiveTriplets()
	if err := r.model.Reproject(gt, ct); err != nil {
		return err
	}
	r.sys = sys // transient inputs now come from the perturbed sources
	return nil
}

// AC evaluates the reduced transfer function at the given frequencies
// (Hz, any order, unit phasors on every source) for the reduce-time
// probe nodes. Each point costs one q×q complex factorization —
// microseconds — instead of a full band factorization.
func (r *Reduced) AC(freqs []float64) (*ACResult, error) {
	if len(freqs) == 0 {
		return nil, errors.New("mna: AC needs at least one frequency")
	}
	for _, f := range freqs {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("mna: bad frequency %g", f)
		}
	}
	eval := r.model.NewACEval()
	row := make([]complex128, len(r.probes))
	cols := make([][]complex128, len(r.probes))
	for pi := range cols {
		cols[pi] = make([]complex128, len(freqs))
	}
	for k, f := range freqs {
		if err := r.model.EvalAC(eval, 2*math.Pi*f, row); err != nil {
			return nil, fmt.Errorf("mna: reduced AC at %g Hz: %w", f, err)
		}
		for pi := range cols {
			cols[pi][k] = row[pi]
		}
	}
	res := &ACResult{
		Freq:  append([]float64(nil), freqs...),
		probe: make(map[int][]complex128, len(r.probes)),
	}
	for pi, p := range r.probes {
		res.probe[p] = cols[pi]
	}
	return res, nil
}

// Simulate runs a fixed-step transient of the reduced model with the
// circuit's sources, mirroring Simulate's contract — crossing mode
// included — for the reduce-time probes. Only the trapezoidal rule is
// supported. Each timestep costs O(q²) dense work and no heap
// allocations.
func (r *Reduced) Simulate(opts Options) (*Result, error) {
	if opts.Method != Trapezoidal {
		return nil, errors.New("mna: reduced transient supports the trapezoidal rule only")
	}
	if opts.Dt <= 0 {
		return nil, errors.New("mna: Options.Dt must be positive")
	}
	if opts.TEnd <= opts.Dt {
		return nil, fmt.Errorf("mna: TEnd (%g) must exceed Dt (%g)", opts.TEnd, opts.Dt)
	}
	outAt := make([]int, len(opts.Probes))
	for i, p := range opts.Probes {
		k := -1
		for j, rp := range r.probes {
			if rp == p {
				k = j
				break
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("mna: node %d was not probed at Reduce time", p)
		}
		outAt[i] = k
	}
	h := opts.Dt
	steps := int(math.Ceil(opts.TEnd / h))
	tr, err := r.model.NewTransient(h)
	if err != nil {
		return nil, err
	}
	u := make([]float64, len(r.sys.sources))
	srcAt := func(t float64) {
		for i, e := range r.sys.sources {
			u[i] = e.src.V(t)
		}
	}
	srcAt(0)
	tr.Start(u)
	rec := newRecorder(opts, steps)
	record := func(t float64) {
		for i, k := range outAt {
			rec.y[i] = tr.Output(k)
		}
		rec.record(t)
	}
	record(0)
	t := 0.0
	for s := 0; s < steps && !rec.crossed(); s++ {
		if s%ctxStride == 0 {
			if cerr := cancel.Check(opts.Ctx); cerr != nil {
				return nil, cerr
			}
		}
		t += h
		srcAt(t)
		tr.Step(u)
		record(t)
	}
	return rec.result(opts.Probes, steps)
}

// ACReduced thresholds: below these sizes the exact engine wins and
// ACReduced does not attempt a reduction.
const (
	acReduceMinUnknowns = 64
	acReduceMinFreqs    = 12
)

// ACStats reports which engine answered an ACReduced call.
type ACStats struct {
	// Reduced is true when the reduced model produced the result;
	// false means the exact band engine ran (fallback or small case).
	Reduced bool
	// Info is the model's accuracy metadata when Reduced is true.
	Info mor.Info
}

// ACReduced is the reduce-once/evaluate-everywhere AC fast path: build
// an adaptively-sized reduced model validated on the requested grid,
// then evaluate every frequency against it. Small systems, short
// sweeps, and any model that fails certification fall back to the
// exact AC engine — the result is then bit-identical to AC's.
func ACReduced(ckt *circuit.Circuit, freqs []float64, probes []int) (*ACResult, ACStats, error) {
	if len(freqs) >= acReduceMinFreqs && ckt.Nodes()-1 >= acReduceMinUnknowns {
		if probe := probeGrid(freqs); probe != nil {
			if red, err := Reduce(ckt, probes, ReduceOptions{Freqs: probe}); err == nil {
				if res, err := red.AC(freqs); err == nil {
					return res, ACStats{Reduced: true, Info: red.Info()}, nil
				}
			}
		}
	}
	res, err := AC(ckt, freqs, probes)
	return res, ACStats{}, err
}

// probeGrid picks up to 7 log-spread positive frequencies from the
// requested sweep as the build's probe/validation grid, or nil when
// the sweep has too few distinct positive points to certify against.
func probeGrid(freqs []float64) []float64 {
	pos := make([]float64, 0, len(freqs))
	for _, f := range freqs {
		if f > 0 && !math.IsInf(f, 0) && !math.IsNaN(f) {
			pos = append(pos, f)
		}
	}
	sort.Float64s(pos)
	uniq := pos[:0]
	for i, f := range pos {
		if i == 0 || f != uniq[len(uniq)-1] {
			uniq = append(uniq, f)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	const want = 7
	if len(uniq) <= want {
		return append([]float64(nil), uniq...)
	}
	grid := make([]float64, 0, want)
	for i := 0; i < want; i++ {
		grid = append(grid, uniq[i*(len(uniq)-1)/(want-1)])
	}
	return grid
}
