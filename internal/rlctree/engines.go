package rlctree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"rlckit/internal/cancel"
	"rlckit/internal/circuit"
	"rlckit/internal/faultinject"
	"rlckit/internal/mna"
	"rlckit/internal/mor"
)

// Engine selects the per-sink delay engine.
type Engine int

// Engines, cheapest first.
const (
	// EngineClosed is the moment/two-pole closed form (default).
	EngineClosed Engine = iota
	// EngineMNA measures every sink from one shared MNA transient.
	EngineMNA
	// EngineReduced measures every sink from the transient of one
	// multi-output Krylov reduced model, falling back to EngineMNA when
	// the reduction cannot be certified.
	EngineReduced
)

func (e Engine) String() string {
	switch e {
	case EngineClosed:
		return "closed"
	case EngineMNA:
		return "mna"
	case EngineReduced:
		return "reduced"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config tunes Analyze. The zero value analyzes with defaults.
type Config struct {
	// Engine selects the delay engine (default EngineClosed).
	Engine Engine
	// StepsPerScale divides the simulation horizon into steps for the
	// MNA and reduced transients (default 3000).
	StepsPerScale int
	// MaxOrder caps the reduced order (default 64 — a multi-sink tree
	// needs a few more vectors than a two-port ladder).
	MaxOrder int
	// ValTol is the reduced model's certification tolerance (default
	// 1e-3 of the response peak).
	ValTol float64
	// Ctx, when non-nil, cancels the simulation engines at their
	// amortized checkpoints (per timestep chunk for EngineMNA, per
	// Arnoldi round and timestep chunk for EngineReduced); Analyze then
	// returns cancel.ErrCanceled/ErrDeadline instead of a result. The
	// closed-form engine is microseconds of work and never checks.
	Ctx context.Context
	// Pencils, when non-nil, persists certified reduced models across
	// analyses (and restarts, when backed by the warm-start store):
	// before building, EngineReduced asks the store for the pencil
	// keyed by the exact tree+drive+config bits, and after a fresh
	// certified build it offers the serialized model back. Reuse is
	// doubly guarded — the key is exact-bits, and the pencil's embedded
	// system fingerprint is revalidated in mna.Reduce — so a stale or
	// mis-keyed entry degrades to a rebuild, never a wrong delay.
	Pencils PencilStore
}

// PencilStore is the persistence hook for certified reduced models.
// Implementations must be safe for concurrent use; both methods are
// best-effort (a miss or a dropped put only costs a rebuild).
type PencilStore interface {
	GetPencil(key string) ([]byte, bool)
	PutPencil(key string, pencil []byte)
}

func (c Config) withDefaults() Config {
	if c.StepsPerScale == 0 {
		c.StepsPerScale = 3000
	}
	if c.MaxOrder == 0 {
		c.MaxOrder = 64
	}
	if c.ValTol == 0 {
		// Tighter than mor's 5e-3 default: the conformance suite holds
		// reduced per-sink delays to 1% of MNA, and a 0.5% certified
		// transfer-function error can already move a 50% crossing by
		// more than that on shallow-sloped tree responses.
		c.ValTol = 1e-3
	}
	return c
}

// SinkDelay is one sink's analysis: the engine delay, the RC-only
// counterfactual, and the closed-form parameters behind them.
type SinkDelay struct {
	// Node is the sink's tree node index.
	Node int
	// Delay is the 50% delay (s) from the configured engine.
	Delay float64
	// DelayClosed is the closed-form two-pole delay — equal to Delay
	// under EngineClosed, and the estimator being graded under the
	// simulation engines.
	DelayClosed float64
	// DelayRC is the closed-form delay of the same tree with every
	// inductance removed — what an RC-only timing flow would report.
	DelayRC float64
	// M1, M2, M3 are the sink's voltage moments (−M1 is the Elmore
	// delay).
	M1, M2, M3 float64
	// Zeta and OmegaN are the sink's two-pole parameters (Eq. 6/3
	// generalized to the tree); +Inf when the second moment collapses
	// to a single pole.
	Zeta, OmegaN float64
	// FitErr is the closed-form model's self-diagnosis: the relative
	// mismatch of the tree's fourth moment against the fitted model's
	// prediction (+Inf when the fit fell back). InDomain is the full
	// validated accuracy-domain verdict (fourth-moment consistency,
	// bounded zero strength, bounded damping, no shoulder risk — see
	// momentDelay); inside it the conformance suite holds the closed
	// form to 10% of the MNA reference, and outside it callers should
	// prefer a simulation engine.
	FitErr   float64
	InDomain bool
}

// InDomainMaxFitErr is the fourth-moment self-consistency bound of the
// closed-form engine's validated accuracy domain: the fitted
// two-pole-plus-zero model must reproduce the true m4 within this
// relative error, or the response has higher-order structure the
// moment map cannot see. The 4% bound was pinned by population scans
// against the MNA reference (see internal/conformance): at 0.04 every
// in-domain sink of the conformance corpus tracks MNA within 10%,
// while 0.10 already admits >10% outliers.
const InDomainMaxFitErr = 0.04

// Result is a completed tree analysis: the per-sink delay table and the
// skew statistics over it.
type Result struct {
	// Engine is the engine that produced the Delay column.
	Engine Engine
	// Sinks is the per-sink table in ascending node order.
	Sinks []SinkDelay
	// MinDelay and MaxDelay bound the Delay column; MaxSkew is their
	// difference — the sink-to-sink skew of the net.
	MinDelay, MaxDelay, MaxSkew float64
	// MaxSkewRC is the skew of the DelayRC column, and SkewErrPct is
	// 100·(MaxSkewRC − MaxSkew)/MaxSkew — the signed error an RC-only
	// flow makes on this net's skew. It reports 0 when the tree has a
	// single sink or negligible skew (< 0.1% of MaxDelay), where the
	// ratio would be numerical noise.
	MaxSkewRC, SkewErrPct float64
	// Reduced reports that a certified reduced-order model produced the
	// Delay column; Fallback that EngineReduced was requested but the
	// exact MNA engine answered. MORInfo carries the model's
	// certification metadata when Reduced is true.
	Reduced  bool
	Fallback bool
	MORInfo  mor.Info
}

// Analyze computes the per-sink delay table and skew of a driven tree.
func Analyze(t *Tree, d Drive, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	res := &Result{Engine: cfg.Engine, Sinks: closedTable(t, d)}
	switch cfg.Engine {
	case EngineClosed:
		for i := range res.Sinks {
			res.Sinks[i].Delay = res.Sinks[i].DelayClosed
		}
	case EngineMNA:
		delays, err := delaysMNA(t, d, cfg, res.Sinks)
		if err != nil {
			return nil, err
		}
		for i := range res.Sinks {
			res.Sinks[i].Delay = delays[i]
		}
	case EngineReduced:
		delays, info, err := delaysReduced(t, d, cfg, res.Sinks)
		if err == nil {
			res.Reduced = true
			res.MORInfo = info
		} else if cancel.Is(err) || faultinject.IsFault(err) {
			// Cancellation must not trigger the exact fallback — the
			// request is being abandoned, not re-routed. Injected faults
			// propagate too: a fallback would change the reported engine
			// and break retry byte-determinism.
			return nil, err
		} else {
			// Certification failure is an engine-selection event, not an
			// analysis error: the exact shared transient answers instead.
			if delays, err = delaysMNA(t, d, cfg, res.Sinks); err != nil {
				return nil, err
			}
			res.Fallback = true
		}
		for i := range res.Sinks {
			res.Sinks[i].Delay = delays[i]
		}
	default:
		return nil, fmt.Errorf("rlctree: unknown engine %v", cfg.Engine)
	}
	res.finishSkew()
	return res, nil
}

// closedTable fills the moment-derived columns for every sink.
func closedTable(t *Tree, d Drive) []SinkDelay {
	m := t.moments(d.Rtr)
	out := make([]SinkDelay, len(t.sinks))
	for k, node := range t.sinks {
		s := &out[k]
		s.Node = node
		s.M1, s.M2, s.M3 = m.M1[node], m.M2[node], m.M3[node]
		s.DelayClosed, s.Zeta, s.OmegaN, s.FitErr, s.InDomain = momentDelay(s.M1, s.M2, s.M3, m.M4[node])
		s.DelayRC, _, _, _, _ = momentDelay(s.M1, m.M2RC[node], m.M3RC[node], m.M4RC[node])
	}
	return out
}

// finishSkew derives the skew statistics from the filled sink table.
func (r *Result) finishSkew() {
	minD, maxD := math.Inf(1), math.Inf(-1)
	minRC, maxRC := math.Inf(1), math.Inf(-1)
	for i := range r.Sinks {
		s := &r.Sinks[i]
		minD = math.Min(minD, s.Delay)
		maxD = math.Max(maxD, s.Delay)
		minRC = math.Min(minRC, s.DelayRC)
		maxRC = math.Max(maxRC, s.DelayRC)
	}
	r.MinDelay, r.MaxDelay = minD, maxD
	r.MaxSkew = maxD - minD
	r.MaxSkewRC = maxRC - minRC
	// The relative skew error is only meaningful when the tree has
	// meaningful skew: on a near-perfectly balanced tree both skews are
	// numerical residue and their ratio is noise, so it reports 0.
	if r.MaxSkew > 1e-3*r.MaxDelay {
		r.SkewErrPct = 100 * (r.MaxSkewRC - r.MaxSkew) / r.MaxSkew
	}
}

// ToCircuit converts the driven tree to a circuit.Circuit for the MNA
// simulator (and, through mna.Reduce, the sparse-triplet form the
// model-order reduction projects). The source is an ideal step of
// d.Amplitude() volts delayed by delay. It returns the circuit and the
// mapping from tree node index to circuit node ID.
//
// A zero d.Rtr is replaced by a negligible 1e-6 Ω series resistance
// (the MNA formulation needs the source separated from the first
// reactive node), matching tline.BuildLadder's convention. Zero branch
// resistances or inductances are omitted rather than stamped.
func (t *Tree) ToCircuit(d Drive, delay float64) (*circuit.Circuit, []int, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if err := t.validate(); err != nil {
		return nil, nil, err
	}
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		return nil, nil, fmt.Errorf("rlctree: source delay must be finite and non-negative, got %g: %w", delay, ErrValue)
	}
	ckt := circuit.New()
	src := ckt.Node()
	if err := ckt.AddV("vin", src, circuit.Ground,
		circuit.Step{Amplitude: d.Amplitude(), Delay: delay}); err != nil {
		return nil, nil, err
	}
	nodeOf := make([]int, len(t.parent))
	nodeOf[0] = ckt.Node()
	rtr := d.Rtr
	if rtr == 0 {
		rtr = 1e-6
	}
	if err := ckt.AddR("rtr", src, nodeOf[0], rtr); err != nil {
		return nil, nil, err
	}
	// Element names are built by concatenation, not fmt: fmt's pooled
	// printers make allocation counts nondeterministic under the race
	// detector, which drops pooled items at random.
	for i := 1; i < len(t.parent); i++ {
		from := nodeOf[t.parent[i]]
		ni := ckt.Node()
		nodeOf[i] = ni
		r, l := t.r[i], t.l[i]
		b := "b" + strconv.Itoa(i)
		switch {
		case r > 0 && l > 0:
			mid := ckt.Node()
			if err := ckt.AddR(b+".r", from, mid, r); err != nil {
				return nil, nil, err
			}
			if err := ckt.AddL(b+".l", mid, ni, l); err != nil {
				return nil, nil, err
			}
		case r > 0:
			if err := ckt.AddR(b+".r", from, ni, r); err != nil {
				return nil, nil, err
			}
		default: // l > 0, enforced at Add
			if err := ckt.AddL(b+".l", from, ni, l); err != nil {
				return nil, nil, err
			}
		}
	}
	for i := range t.parent {
		if c := t.c[i] + t.load[i]; c > 0 {
			if err := ckt.AddC("n"+strconv.Itoa(i)+".c", nodeOf[i], circuit.Ground, c); err != nil {
				return nil, nil, err
			}
		}
	}
	return ckt, nodeOf, nil
}

// timeScales returns the tree's slow envelope scale and the fastest
// sink scale, derived from the closed-form table Analyze already
// built: the Elmore envelope (−m1) bounds settling from above, and the
// fastest fitted sink delay bounds the dynamics the transient (and the
// reduced model's certification band) must resolve. The raw per-sink
// b2 is NOT used here — near-cancelling sinks have b2 ≤ 0, which once
// collapsed this band to near-DC and let a certified reduced model be
// wildly wrong in the time domain (caught by the conformance harness).
func (t *Tree) timeScales(d Drive, table []SinkDelay) (horizon, tFast float64) {
	maxB1, dMax := 0.0, 0.0
	dMin := math.Inf(1)
	for k := range table {
		maxB1 = math.Max(maxB1, -table[k].M1)
		if d := table[k].DelayClosed; d > 0 && !math.IsInf(d, 0) {
			dMin = math.Min(dMin, d)
			dMax = math.Max(dMax, d)
		}
	}
	if dMax <= 0 || math.IsInf(dMin, 1) {
		// Degenerate estimates; fall back to the total cap seen through
		// the driver so every scale is still positive.
		horizon = 4 * (d.Rtr + 1) * t.TotalCap()
		return horizon, horizon
	}
	horizon = 4*maxB1 + 8*dMax
	return horizon, dMin / 2
}

// transientPlan derives the shared transient parameters from the
// closed-form table: the timestep, the source step delay, and the
// planned end time (a settling horizon; mna.CrossBudget widens it to
// the run's step budget). Both simulation engines — and the incremental
// frozen MNA twin, which must reproduce the cold engine's arithmetic
// exactly — plan through this one function.
func (t *Tree) transientPlan(d Drive, cfg Config, table []SinkDelay) (dt, delay, tEnd float64) {
	horizon, tFast := t.timeScales(d, table)
	dt = math.Min(horizon/float64(cfg.StepsPerScale), tFast/30)
	delay = 10 * dt
	return dt, delay, horizon + delay
}

// runCrossings runs one crossing-mode transient (opts carries the
// planned grid, the probes and the crossing level; its TEnd is widened
// to mna.CrossBudget) and returns every probe's crossing less effDelay, the
// effective step time — the trapezoidal rule smears the ideal step
// across one timestep. The run stops at the last crossing; what names
// the engine in the typed error when the budget runs out first.
func runCrossings(sim func(mna.Options) (*mna.Result, error), opts mna.Options, effDelay float64, what string) ([]float64, error) {
	opts.TEnd = mna.CrossBudget(opts.TEnd)
	res, err := sim(opts)
	if errors.Is(err, mna.ErrNoCrossing) {
		return nil, fmt.Errorf("rlctree: a %s never crossed %g: %w", what, opts.CrossLevel, err)
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res.Crossings))
	for k, c := range res.Crossings {
		out[k] = c - effDelay
	}
	return out, nil
}

// delaysMNA measures every sink's 50% delay from one shared transient:
// all sinks are probed in a single mna.Simulate solve, so the cost is
// one factorization (the tree's no-fill LU) and one step loop
// regardless of sink count — this is what makes multi-sink nets
// cheaper than N point-to-point analyses (BenchmarkTreeDelay
// quantifies it).
func delaysMNA(t *Tree, d Drive, cfg Config, table []SinkDelay) ([]float64, error) {
	dt, delay, tEnd := t.transientPlan(d, cfg, table)
	ckt, nodeOf, err := t.ToCircuit(d, delay)
	if err != nil {
		return nil, err
	}
	return runCrossings(func(o mna.Options) (*mna.Result, error) {
		return mna.Simulate(ckt, o)
	}, t.crossOptions(d, cfg, nodeOf, dt, tEnd), delay-dt/2, "sink")
}

// crossOptions is the crossing-mode run of a transient plan: every
// sink probed (nodeOf maps tree nodes to circuit nodes) for the
// drive's 50% level.
func (t *Tree) crossOptions(d Drive, cfg Config, nodeOf []int, dt, tEnd float64) mna.Options {
	probes := make([]int, len(t.sinks))
	for k, node := range t.sinks {
		probes[k] = nodeOf[node]
	}
	return mna.Options{Dt: dt, TEnd: tEnd, Probes: probes, Ctx: cfg.Ctx, CrossLevel: d.Amplitude() / 2}
}

// treeProbeFreqs picks the reduced model's probe/validation band from
// the tree's time scales: well below the response envelope to well
// above the fastest sink's rise. The upper edge sits at 6/tFast: a
// sharp wave-front edge carries content several harmonics above the
// crossing scale, and a model certified only up to ~1.5/tFast can
// pass certification yet place the 50% crossing ~2% off (caught by
// the conformance corpus; at 6/tFast the residual is parts in 1e9).
func treeProbeFreqs(horizon, tFast float64) []float64 {
	fLo := 0.03 / horizon
	fHi := 6 / tFast
	const n = 7
	out := make([]float64, n)
	ratio := math.Pow(fHi/fLo, 1/float64(n-1))
	f := fLo
	for i := range out {
		out[i] = f
		f *= ratio
	}
	return out
}

// pencilKey renders the exact bits a reduced build depends on — the
// full tree arrays, the drive, and the build-relevant config — as a
// canonical string. Floats use hex notation ('x', precision -1), which
// round-trips every float64 exactly, so two analyses share a key iff
// they would build bit-identical models.
func pencilKey(t *Tree, d Drive, cfg Config) string {
	var b strings.Builder
	b.Grow(32 * len(t.parent))
	x := func(v float64) {
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
		b.WriteByte(' ')
	}
	b.WriteString("tree1|")
	for i, p := range t.parent {
		b.WriteString(strconv.Itoa(p))
		b.WriteByte(':')
		x(t.r[i])
		x(t.l[i])
		x(t.c[i])
		x(t.load[i])
		if t.sink[i] {
			b.WriteByte('s')
		}
		b.WriteByte(';')
	}
	b.WriteByte('|')
	x(d.Rtr)
	x(d.V)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(cfg.StepsPerScale))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(cfg.MaxOrder))
	b.WriteByte(' ')
	x(cfg.ValTol)
	return b.String()
}

// delaysReduced measures every sink's delay on one multi-output
// reduced-order model: a single Krylov basis is built with every sink
// as an output (mna.Reduce), certified against exact solves, and the
// q×q reduced transient is stepped once for all sinks. An error means
// the model could not be certified; Analyze falls back to delaysMNA.
func delaysReduced(t *Tree, d Drive, cfg Config, table []SinkDelay) ([]float64, mor.Info, error) {
	horizon, tFast := t.timeScales(d, table)
	dt, delay, tEnd := t.transientPlan(d, cfg, table)
	ckt, nodeOf, err := t.ToCircuit(d, delay)
	if err != nil {
		return nil, mor.Info{}, err
	}
	opts := t.crossOptions(d, cfg, nodeOf, dt, tEnd)
	ropt := mna.ReduceOptions{
		Freqs:    treeProbeFreqs(horizon, tFast),
		MaxOrder: cfg.MaxOrder,
		ValTol:   cfg.ValTol,
		Ctx:      cfg.Ctx,
	}
	if cfg.Pencils != nil {
		key := pencilKey(t, d, cfg)
		if p, ok := cfg.Pencils.GetPencil(key); ok {
			ropt.Pencil = p
		}
		ropt.OnBuild = func(p []byte) { cfg.Pencils.PutPencil(key, p) }
	}
	red, err := mna.Reduce(ckt, opts.Probes, ropt)
	if err != nil {
		return nil, mor.Info{}, err
	}
	out, err := runCrossings(red.Simulate, opts, delay-dt/2, "reduced sink response")
	if err != nil {
		return nil, mor.Info{}, err
	}
	return out, red.Info(), nil
}
