package rlctree

import (
	"context"
	"errors"
	"fmt"
	"math"

	"rlckit/internal/cancel"
	"rlckit/internal/circuit"
	"rlckit/internal/faultinject"
	"rlckit/internal/mna"
)

// This file is the incremental (what-if) twin of engines.go: load a
// tree once, stream value edits, and re-read per-sink delays after
// each with far less than a from-scratch analysis:
//
//   - closed: the O(n) moment sweeps re-run allocation-free in a
//     reused workspace, and the per-sink crossing search — the
//     dominant closed-form cost — is memoized on the sink's exact
//     moment bits, so sinks whose moments an edit did not move (and
//     any value revisited by the edit script) skip it entirely. The
//     result is bit-identical to a cold Analyze of the edited tree.
//   - mna: the RCM ordering is structural, so value edits re-stamp the
//     frozen ordering (mna.Frozen) and skip the symbolic work; the
//     step loop is unchanged and the result is bit-identical to a cold
//     Analyze of the edited tree.
//   - reduced: the Krylov basis built at open time (with anchors
//     bracketing an AnchorSpread envelope) is frozen; an edit
//     re-targets the reduced pencil by per-element congruence block
//     deltas in O(q²) — no Arnoldi, no re-assembly, nothing O(n·q²).
//     Edits inside the certified envelope evaluate immediately; edits
//     outside it trigger re-certification against exact probe solves,
//     and failure falls back to the (bit-exact frozen) MNA engine,
//     mirroring refeng's envelope guard. The reduced fast path is NOT
//     bit-identical to a cold EngineReduced analysis — a cold build
//     grows a different basis from the edited values — its contract is
//     the certified tolerance; the fallback path IS bit-identical to
//     cold EngineMNA.
//
// A structural edit — a branch r or l, or a node's total capacitance,
// crossing zero, which changes the circuit ToCircuit emits — discards
// the frozen engine state; the next Analyze rebuilds it (counted in
// Stats.Rebuilds).

// momentKey is a sink's exact moment bits — the memo key for the
// closed-form crossing search (momentDelay is a pure function of these
// four values).
type momentKey struct {
	m1, m2, m3, m4 float64
}

type momentVal struct {
	delay, zeta, omegaN, fitErr float64
	inDomain                    bool
}

// memoLimit bounds the crossing memo; when full it is cleared rather
// than evicted (edit scripts revisit a small working set).
const memoLimit = 1 << 15

// redParamKind classifies an envelope parameter.
type redParamKind uint8

const (
	paramR redParamKind = iota // branch or driver resistance
	paramL                     // branch inductance
	paramC                     // node total capacitance
)

// redParam is one envelope-tracked value of the frozen reduced model.
type redParam struct {
	kind   redParamKind
	elem   int     // circuit element index at build time
	build  float64 // build-time effective value
	rat    float64 // current/build ratio
	lo, hi float64 // certified envelope for rat
	out    bool    // rat outside [lo, hi]
}

// errReducedUnstable marks a frozen reduced transient that left the
// passive range: the rescaled pencil is unstable at the current values
// even though frequency-domain certification passed (an unstable mode
// can couple to every probe with negligible residue). The evaluation
// falls back to the exact engine.
var errReducedUnstable = errors.New("rlctree: frozen reduced transient left the passive range")

// IncStats counts the incremental engine's path decisions.
type IncStats struct {
	// Edits counts accepted edits; Analyzes completed result reads.
	Edits, Analyzes int
	// MemoHits/MemoMisses count the closed-form crossing memo.
	MemoHits, MemoMisses int
	// ReducedFast counts results answered by the frozen reduced model;
	// Recerts re-certifications triggered by out-of-envelope values;
	// RecertFails those that failed; Fallbacks results the exact engine
	// answered after a reduced failure.
	ReducedFast, Recerts, RecertFails, Fallbacks int
	// Rebuilds counts frozen-state rebuilds after structural edits.
	Rebuilds int
}

// Incremental is a stateful what-if analyzer over one tree: edit
// values (SetBranch/SetLoad/SetDriver), then Analyze with any engine.
// Not safe for concurrent use; callers serialize (internal/session
// wraps it with a lock).
type Incremental struct {
	t   *Tree
	d   Drive
	cfg Config

	// Closed-form state.
	ws   momentWorkspace
	memo map[momentKey]momentVal

	// Edits pending reduced-model sync (a flag per node, so a sync
	// folds them in ascending node order and a replay of the same edits
	// rounds identically), and the structural flag.
	dirty       []bool
	driverDirty bool
	structDirty bool

	// Exact-engine state.
	frz *mna.Frozen

	// Reduced-engine state.
	red       *mna.Reduced
	redErr    error // sticky non-certifiable build → fallback
	redProbes []int
	delay0    float64 // frozen source step delay
	buildAmp  float64 // frozen source amplitude
	freqs0    []float64
	params    []redParam
	pR, pL    []int // per-node param index (-1 absent)
	pC        []int
	pRtr      int
	redOut    int // params currently outside their envelope

	stats IncStats
}

// NewIncremental opens a what-if session over a copy of the tree. The
// configured engine is only Analyze's default; every engine's state is
// built lazily on first use.
func NewIncremental(t *Tree, d Drive, cfg Config) (*Incremental, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	ct, err := t.Scale(1, 1, 1) // deep copy; ×1 is bit-exact
	if err != nil {
		return nil, err
	}
	return &Incremental{
		t:     ct,
		d:     d,
		cfg:   cfg.withDefaults(),
		memo:  make(map[momentKey]momentVal),
		dirty: make([]bool, ct.Len()),
	}, nil
}

// Tree returns a copy of the current (edited) tree — the net a cold
// analysis must be given to reproduce Analyze's answer.
func (inc *Incremental) Tree() *Tree {
	ct, _ := inc.t.Scale(1, 1, 1)
	return ct
}

// Drive returns the current drive.
func (inc *Incremental) Drive() Drive { return inc.d }

// Branch returns a branch's current series values (see Tree.Branch).
func (inc *Incremental) Branch(node int) (r, l, c float64, err error) {
	return inc.t.Branch(node)
}

// SinkLoad returns a sink's current load capacitance (see
// Tree.SinkLoad).
func (inc *Incremental) SinkLoad(node int) (float64, error) {
	return inc.t.SinkLoad(node)
}

// Stats returns the path counters.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// SetBranch edits the series branch into a node. An r or l crossing
// zero is a structural edit (the emitted circuit changes shape) and
// schedules a frozen-state rebuild.
func (inc *Incremental) SetBranch(node int, r, l float64) error {
	if err := inc.t.checkNode("node", node); err != nil {
		return err
	}
	oldR, oldL := inc.t.r[node], inc.t.l[node]
	if err := inc.t.SetBranch(node, r, l); err != nil {
		return err
	}
	if (oldR > 0) != (r > 0) || (oldL > 0) != (l > 0) {
		inc.structDirty = true
	}
	inc.dirty[node] = true
	inc.stats.Edits++
	return nil
}

// SetLoad edits a sink's load capacitance.
func (inc *Incremental) SetLoad(node int, cl float64) error {
	if err := inc.t.checkNode("sink", node); err != nil {
		return err
	}
	oldTot := inc.t.c[node] + inc.t.load[node]
	if err := inc.t.SetLoad(node, cl); err != nil {
		return err
	}
	if (oldTot > 0) != (inc.t.c[node]+cl > 0) {
		inc.structDirty = true
	}
	inc.dirty[node] = true
	inc.stats.Edits++
	return nil
}

// SetDriver edits the drive. The driver resistance is always stamped
// (ToCircuit substitutes 1e-6 Ω for an ideal driver), so this is never
// structural; amplitude changes shift the reduced path's crossing
// level rather than its frozen source — a linear system's 50% delay is
// amplitude-invariant.
func (inc *Incremental) SetDriver(d Drive) error {
	if err := d.Validate(); err != nil {
		return err
	}
	inc.d = d
	inc.driverDirty = true
	inc.stats.Edits++
	return nil
}

// memoDelay is momentDelay behind the crossing memo. Non-finite
// moments bypass the memo (NaN keys never match themselves).
func (inc *Incremental) memoDelay(m1, m2, m3, m4 float64) (delay, zeta, omegaN, fitErr float64, inDomain bool) {
	if math.IsNaN(m1) || math.IsNaN(m2) || math.IsNaN(m3) || math.IsNaN(m4) {
		return momentDelay(m1, m2, m3, m4)
	}
	k := momentKey{m1, m2, m3, m4}
	if v, ok := inc.memo[k]; ok {
		inc.stats.MemoHits++
		return v.delay, v.zeta, v.omegaN, v.fitErr, v.inDomain
	}
	inc.stats.MemoMisses++
	delay, zeta, omegaN, fitErr, inDomain = momentDelay(m1, m2, m3, m4)
	if len(inc.memo) >= memoLimit {
		clear(inc.memo)
	}
	inc.memo[k] = momentVal{delay, zeta, omegaN, fitErr, inDomain}
	return delay, zeta, omegaN, fitErr, inDomain
}

// closedTable is closedTable on the reused workspace and crossing
// memo — the same arithmetic as the cold path, so the values are
// bit-identical.
func (inc *Incremental) closedTable() []SinkDelay {
	m := inc.t.momentsInto(inc.d.Rtr, &inc.ws)
	out := make([]SinkDelay, len(inc.t.sinks))
	for k, node := range inc.t.sinks {
		s := &out[k]
		s.Node = node
		s.M1, s.M2, s.M3 = m.M1[node], m.M2[node], m.M3[node]
		s.DelayClosed, s.Zeta, s.OmegaN, s.FitErr, s.InDomain = inc.memoDelay(s.M1, s.M2, s.M3, m.M4[node])
		s.DelayRC, _, _, _, _ = inc.memoDelay(s.M1, m.M2RC[node], m.M3RC[node], m.M4RC[node])
	}
	return out
}

// Analyze reads the per-sink delay table of the current (edited) tree
// with the given engine, reusing as much frozen state as the edit
// history allows. ctx cancels the simulation engines exactly as
// Config.Ctx does for the cold Analyze.
func (inc *Incremental) Analyze(ctx context.Context, engine Engine) (*Result, error) {
	cfg := inc.cfg
	cfg.Ctx = ctx
	if err := inc.t.validate(); err != nil {
		return nil, err
	}
	if inc.structDirty {
		if inc.frz != nil || inc.red != nil || inc.redErr != nil {
			inc.stats.Rebuilds++
		}
		inc.frz = nil
		inc.red, inc.redErr = nil, nil
		clear(inc.dirty)
		inc.driverDirty = false
		inc.structDirty = false
	}
	table := inc.closedTable()
	res := &Result{Engine: engine, Sinks: table}
	switch engine {
	case EngineClosed:
		for i := range res.Sinks {
			res.Sinks[i].Delay = res.Sinks[i].DelayClosed
		}
	case EngineMNA:
		delays, err := inc.delaysFrozenMNA(cfg, table)
		if err != nil {
			return nil, err
		}
		for i := range res.Sinks {
			res.Sinks[i].Delay = delays[i]
		}
	case EngineReduced:
		delays, reduced, err := inc.delaysFrozenReduced(ctx, cfg, table)
		if err != nil {
			return nil, err
		}
		res.Reduced = reduced
		if reduced {
			res.MORInfo = inc.red.Info()
			inc.stats.ReducedFast++
		} else {
			res.Fallback = true
			inc.stats.Fallbacks++
		}
		for i := range res.Sinks {
			res.Sinks[i].Delay = delays[i]
		}
	default:
		return nil, fmt.Errorf("rlctree: unknown engine %v", engine)
	}
	res.finishSkew()
	inc.stats.Analyzes++
	return res, nil
}

// delaysFrozenMNA is delaysMNA with the assembly's RCM/symbolic work
// frozen: the circuit is re-emitted with the current values, re-stamped
// into the pinned ordering, and simulated with the exact plan a cold
// run would use — bit-identical output, minus the ordering cost.
func (inc *Incremental) delaysFrozenMNA(cfg Config, table []SinkDelay) ([]float64, error) {
	dt, delay, tEnd := inc.t.transientPlan(inc.d, cfg, table)
	ckt, nodeOf, err := inc.t.ToCircuit(inc.d, delay)
	if err != nil {
		return nil, err
	}
	probes := make([]int, len(inc.t.sinks))
	for k, node := range inc.t.sinks {
		probes[k] = nodeOf[node]
	}
	if inc.frz == nil {
		if inc.frz, err = mna.Freeze(ckt); err != nil {
			return nil, err
		}
	} else if err = inc.frz.Restamp(ckt); err != nil {
		// A structural change slipped past the edit-time detection;
		// re-freeze rather than fail.
		inc.stats.Rebuilds++
		if inc.frz, err = mna.Freeze(ckt); err != nil {
			return nil, err
		}
	}
	return runCrossings(func(tEnd float64) (*mna.Result, error) {
		return inc.frz.Simulate(mna.Options{Dt: dt, TEnd: tEnd, Probes: probes, Ctx: cfg.Ctx})
	}, probes, inc.d.Amplitude()/2, delay-dt/2, tEnd, "sink")
}

// delaysFrozenReduced answers through the frozen reduced model when it
// exists (building it on first use) and its certified envelope — or a
// fresh re-certification — covers the current values; otherwise it
// answers through the frozen exact engine. reduced reports which path
// produced the delays.
func (inc *Incremental) delaysFrozenReduced(ctx context.Context, cfg Config, table []SinkDelay) (delays []float64, reduced bool, err error) {
	if inc.red == nil && inc.redErr == nil {
		if err := inc.buildReduced(cfg, table); err != nil {
			return nil, false, err
		}
	}
	fallback := func() ([]float64, bool, error) {
		d, err := inc.delaysFrozenMNA(cfg, table)
		return d, false, err
	}
	if inc.redErr != nil {
		// The open-time build could not be certified; the exact engine
		// owns this session until a structural rebuild.
		return fallback()
	}
	if err := inc.syncReduced(); err != nil {
		return nil, false, err
	}
	if inc.redOut > 0 {
		// The certified envelope no longer covers the values: re-certify
		// the recombined pencil against exact probe solves before
		// trusting it (one complex band factorization per probe).
		inc.stats.Recerts++
		errPct, cerr := inc.red.CertifyCurrent(inc.freqs0)
		if cerr != nil || errPct > 100*cfg.ValTol {
			inc.stats.RecertFails++
			if cerr != nil && (cancel.Is(cerr) || faultinject.IsFault(cerr)) {
				return nil, false, cerr
			}
			return fallback()
		}
		// Certified at the current values: the envelope grows to cover
		// them, so staying in this neighborhood stays on the fast path.
		for i := range inc.params {
			p := &inc.params[i]
			if p.out {
				p.lo = math.Min(p.lo, p.rat)
				p.hi = math.Max(p.hi, p.rat)
				p.out = false
			}
		}
		inc.redOut = 0
	}
	// The reduced transient replays the frozen source (step at delay0,
	// build amplitude): a linear system's 50% crossing is amplitude-
	// invariant. The grid is the EDITED net's cold grid — a cold run of
	// this net would step the source at 10·dt, while the frozen source
	// steps at delay0, so the discrete input is shifted by a whole number
	// of samples. A fixed-step linear recurrence shifted by whole samples
	// produces a bit-identical shifted output, so subtracting the shifted
	// effective step time reproduces the cold run's timing convention to
	// rounding. The on-sample indices are found by replaying the
	// simulator's accumulated `t += dt` clock, not by dividing, so that
	// accumulated-rounding near a sample boundary resolves identically
	// here and inside Simulate.
	horizon, tFast := inc.t.timeScales(inc.d, table)
	dt := math.Min(horizon/float64(cfg.StepsPerScale), tFast/30)
	onSample := func(stepAt float64) int {
		m, t := 0, 0.0
		for t < stepAt {
			t += dt
			m++
		}
		return m
	}
	shift := float64(onSample(inc.delay0)-onSample(10*dt)) * dt
	effDelay := 10*dt - dt/2 + shift
	tEnd := horizon + inc.delay0
	// Time-domain certificate: frequency-domain certification can miss
	// an unstable pole the rescaled pencil grew off the build point — a
	// right-half-plane mode with a tiny probe residue sits below the
	// certified tolerance at every probe frequency yet amplifies rounding
	// noise without bound in the transient (the conformance corpus caught
	// exactly this: cert error 2e-6 with the waveform at 1e200 by the
	// horizon). A passive RLC step response is bounded by ~2x the drive
	// amplitude, so any sample beyond a generous multiple (or non-finite)
	// convicts the pencil and this evaluation drops to the exact engine;
	// the next edit may move back to a stable point, so nothing is sticky.
	unstableBound := 8 * inc.buildAmp
	delays, rerr := runCrossings(func(tEnd float64) (*mna.Result, error) {
		res, err := inc.red.Simulate(mna.Options{Dt: dt, TEnd: tEnd, Probes: inc.redProbes, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		for _, p := range inc.redProbes {
			w, werr := res.Waveform(p)
			if werr != nil {
				return nil, werr
			}
			for _, y := range w.Y {
				if math.IsNaN(y) || math.Abs(y) > unstableBound {
					return nil, errReducedUnstable
				}
			}
		}
		return res, nil
	}, inc.redProbes, inc.buildAmp/2, effDelay, tEnd, "reduced sink response")
	if rerr != nil {
		if cancel.Is(rerr) || faultinject.IsFault(rerr) {
			return nil, false, rerr
		}
		return fallback()
	}
	return delays, true, nil
}

// buildReduced is the open-time cost of the reduced fast path: one
// anchored Krylov build over the current tree, the per-element scaling
// index, and the certified envelope. A certification failure is sticky
// (inc.redErr): cold analyses of this tree would fall back too, and
// the exact engine answers until a structural rebuild.
func (inc *Incremental) buildReduced(cfg Config, table []SinkDelay) error {
	horizon, tFast := inc.t.timeScales(inc.d, table)
	dt := math.Min(horizon/float64(cfg.StepsPerScale), tFast/30)
	inc.delay0 = 10 * dt
	inc.buildAmp = inc.d.Amplitude()
	inc.freqs0 = treeProbeFreqs(horizon, tFast)
	ckt, nodeOf, err := inc.t.ToCircuit(inc.d, inc.delay0)
	if err != nil {
		return err
	}
	probes := make([]int, len(inc.t.sinks))
	for k, node := range inc.t.sinks {
		probes[k] = nodeOf[node]
	}
	// Anchors bracket a uniform ×spread / ÷spread family of the tree
	// elements AND of the driver resistance, so any value-set inside the
	// envelope projects accurately through the frozen basis (the same
	// contract refeng's corner anchors provide). The driver pair is not
	// redundant: rtr is held fixed by the tree-scaling pair, and a basis
	// anchored only there projects driver edits an order of magnitude
	// worse than its certificate claims.
	spread := cfg.AnchorSpread
	anchors := make([]*circuit.Circuit, 0, 4)
	for _, s := range [...]float64{1 / spread, spread} {
		st, err := inc.t.Scale(s, s, s)
		if err != nil {
			return err
		}
		ackt, _, err := st.ToCircuit(inc.d, inc.delay0)
		if err != nil {
			return err
		}
		anchors = append(anchors, ackt)
	}
	rtrEff := inc.d.Rtr
	if rtrEff == 0 {
		rtrEff = 1e-6
	}
	for _, s := range [...]float64{1 / spread, spread} {
		ad := inc.d
		ad.Rtr = rtrEff * s
		ackt, _, err := inc.t.ToCircuit(ad, inc.delay0)
		if err != nil {
			return err
		}
		anchors = append(anchors, ackt)
	}
	red, err := mna.Reduce(ckt, probes, mna.ReduceOptions{
		Freqs:    inc.freqs0,
		MaxOrder: cfg.MaxOrder,
		ValTol:   cfg.ValTol,
		Anchors:  anchors,
		Ctx:      cfg.Ctx,
	})
	if err != nil {
		if cancel.Is(err) || faultinject.IsFault(err) {
			return err
		}
		inc.redErr = err
		return nil
	}
	if err := red.StartElementScaling(); err != nil {
		return err
	}
	if err := inc.indexElements(ckt, cfg); err != nil {
		return err
	}
	inc.red = red
	inc.redProbes = probes
	inc.redOut = 0
	clear(inc.dirty)
	inc.driverDirty = false
	return nil
}

// indexElements rebuilds the tree-parameter → circuit-element map by
// replaying ToCircuit's construction order, and seeds the envelope.
func (inc *Incremental) indexElements(ckt *circuit.Circuit, cfg Config) error {
	n := inc.t.Len()
	inc.pR = make([]int, n)
	inc.pL = make([]int, n)
	inc.pC = make([]int, n)
	for i := 0; i < n; i++ {
		inc.pR[i], inc.pL[i], inc.pC[i] = -1, -1, -1
	}
	inc.params = inc.params[:0]
	lim := math.Pow(cfg.AnchorSpread, 1.15)
	if lim < 1.02 {
		lim = 1.02
	}
	elems := ckt.Elements()
	addParam := func(kind redParamKind, elem int, build float64, wantKind circuit.ElementKind) (int, error) {
		if elem >= len(elems) || elems[elem].Kind != wantKind {
			return 0, fmt.Errorf("rlctree: element map out of sync at element %d", elem)
		}
		inc.params = append(inc.params, redParam{
			kind: kind, elem: elem, build: build,
			rat: 1, lo: 1 / lim, hi: lim,
		})
		return len(inc.params) - 1, nil
	}
	// ToCircuit order: vin, rtr, per-branch R/L, then per-node C.
	ei := 1 // element 0 is vin
	rtr := inc.d.Rtr
	if rtr == 0 {
		rtr = 1e-6
	}
	var err error
	if inc.pRtr, err = addParam(paramR, ei, rtr, circuit.KindResistor); err != nil {
		return err
	}
	ei++
	for i := 1; i < n; i++ {
		if inc.t.r[i] > 0 {
			if inc.pR[i], err = addParam(paramR, ei, inc.t.r[i], circuit.KindResistor); err != nil {
				return err
			}
			ei++
		}
		if inc.t.l[i] > 0 {
			if inc.pL[i], err = addParam(paramL, ei, inc.t.l[i], circuit.KindInductor); err != nil {
				return err
			}
			ei++
		}
	}
	for i := 0; i < n; i++ {
		if tot := inc.t.c[i] + inc.t.load[i]; tot > 0 {
			if inc.pC[i], err = addParam(paramC, ei, tot, circuit.KindCapacitor); err != nil {
				return err
			}
			ei++
		}
	}
	if ei != len(elems) {
		return fmt.Errorf("rlctree: element map covered %d of %d elements", ei, len(elems))
	}
	return nil
}

// syncReduced replays the pending edits into the frozen reduced model:
// per edited parameter one O(q²) block delta, then one O(q²) pencil
// commit for the batch.
func (inc *Incremental) syncReduced() error {
	changed := false
	apply := func(pi int, val float64) error {
		p := &inc.params[pi]
		rat := val / p.build
		if rat == p.rat {
			return nil
		}
		var sG, sC float64 = 1, 1
		switch p.kind {
		case paramR:
			sG = 1 / rat // conductance stamps scale inversely
		case paramL:
			sC = rat // the ±1 topology stamps in G never scale
		case paramC:
			sC = rat
		}
		if err := inc.red.ScaleElement(p.elem, sG, sC); err != nil {
			return err
		}
		wasOut := p.out
		p.rat = rat
		p.out = rat < p.lo || rat > p.hi
		if p.out != wasOut {
			if p.out {
				inc.redOut++
			} else {
				inc.redOut--
			}
		}
		changed = true
		return nil
	}
	for node, dirty := range inc.dirty {
		if !dirty {
			continue
		}
		if pi := inc.pR[node]; pi >= 0 {
			if err := apply(pi, inc.t.r[node]); err != nil {
				return err
			}
		}
		if pi := inc.pL[node]; pi >= 0 {
			if err := apply(pi, inc.t.l[node]); err != nil {
				return err
			}
		}
		if pi := inc.pC[node]; pi >= 0 {
			if err := apply(pi, inc.t.c[node]+inc.t.load[node]); err != nil {
				return err
			}
		}
	}
	if inc.driverDirty {
		rtr := inc.d.Rtr
		if rtr == 0 {
			rtr = 1e-6
		}
		if err := apply(inc.pRtr, rtr); err != nil {
			return err
		}
	}
	clear(inc.dirty)
	inc.driverDirty = false
	if changed {
		return inc.red.CommitPencil()
	}
	return nil
}
