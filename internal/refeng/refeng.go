// Package refeng provides reference 50%-delay measurements of a driven
// distributed RLC line via three independent engines:
//
//   - MNA: transient simulation of a fine lumped ladder (internal/mna) —
//     rlckit's stand-in for the paper's AS/X dynamic simulations. The
//     engine assembles and orders in O(nnz) and steps allocation-free,
//     so fine ladders (hundreds of segments, tens of thousands of
//     timesteps) are routine.
//   - Ratfun: exact pole/residue step response of a moderate lumped
//     ladder (internal/ratfun) — no time stepping at all.
//   - ExactTF: numerical Laplace inversion of the exact hyperbolic
//     transmission-line transfer function (internal/laplace) — no lumping
//     at all.
//
// The three share no numerical machinery beyond linear algebra, so their
// agreement (checked in tests and reported by Validate) certifies the
// reference value used to grade the paper's closed-form model.
package refeng

import (
	"errors"
	"fmt"
	"math"

	"rlckit/internal/core"
	"rlckit/internal/laplace"
	"rlckit/internal/mna"
	"rlckit/internal/numeric"
	"rlckit/internal/ratfun"
	"rlckit/internal/tline"
)

// timeScales returns the two characteristic times of the driven line:
// the RC-ish scale and the flight-time scale.
func timeScales(ln tline.Line, d tline.Drive) (tRC, tLC float64) {
	rt, lt, ct := ln.Totals()
	tRC = (rt + d.Rtr) * (ct + d.CL)
	tLC = math.Sqrt(lt * (ct + d.CL))
	return tRC, tLC
}

// horizon returns a generous initial simulation horizon.
func horizon(ln tline.Line, d tline.Drive) float64 {
	tRC, tLC := timeScales(ln, d)
	return 4*tRC + 8*tLC
}

// MNAConfig tunes the transient reference engine.
type MNAConfig struct {
	// Segments is the ladder segment count (default 120).
	Segments int
	// Style is the segment style. The zero value is tline.Gamma, which
	// withDefaults keeps; tline.Pi converges fastest in segment count.
	Style tline.SegmentStyle
	// StepsPerScale divides the slow time scale into steps (default 4000).
	StepsPerScale int
	// Method is the integration rule (default trapezoidal).
	Method mna.Method
}

func (c MNAConfig) withDefaults() MNAConfig {
	if c.Segments == 0 {
		c.Segments = 120
	}
	if c.StepsPerScale == 0 {
		c.StepsPerScale = 4000
	}
	return c
}

// DelayMNA measures the 50% propagation delay at the far end of the
// driven line by transient simulation of a lumped ladder.
func DelayMNA(ln tline.Line, d tline.Drive, cfg MNAConfig) (float64, error) {
	cfg = cfg.withDefaults()
	if err := ln.Validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	_, tLC := timeScales(ln, d)
	tEst := horizon(ln, d)
	// dt must resolve both the envelope and the per-segment resonance.
	dt := math.Min(tEst/float64(cfg.StepsPerScale), tLC/(6*float64(cfg.Segments)))
	delay := 10 * dt
	lad, err := tline.BuildLadder(ln, d, cfg.Segments, cfg.Style, delay)
	if err != nil {
		return 0, err
	}
	level := d.Amplitude() / 2
	// One crossing-mode run: it stops at the far end's first 50%
	// crossing, within the budget of the settling horizon.
	res, err := mna.Simulate(lad.Ckt, mna.Options{
		Method:     cfg.Method,
		Dt:         dt,
		TEnd:       mna.CrossBudget(tEst + delay),
		Probes:     []int{lad.Out},
		CrossLevel: level,
	})
	if errors.Is(err, mna.ErrNoCrossing) {
		return 0, fmt.Errorf("refeng: MNA response never crossed %g: %w", level, err)
	}
	if err != nil {
		return 0, err
	}
	// The trapezoidal rule smears the ideal step across one timestep:
	// the effective step time is delay − dt/2.
	eff := delay
	if cfg.Method == mna.Trapezoidal {
		eff -= dt / 2
	}
	return res.Crossings[0] - eff, nil
}

// RatfunConfig tunes the pole/residue reference engine.
type RatfunConfig struct {
	// Segments is the ladder segment count (default 24; the engine is
	// exact for the ladder, so this only controls how well the ladder
	// approximates the distributed line, and polynomial root finding
	// limits it to ~24 — beyond that the ladder's tightly clustered real
	// poles defeat the Aberth iteration).
	Segments int
	// Style is the segment style. The zero value is tline.Gamma, which
	// withDefaults keeps.
	Style tline.SegmentStyle
	// NoRichardson disables the half-resolution Richardson step that
	// cancels the ladder's leading O(1/n) delay-discretization error
	// (measured cleanly first-order across damping regimes; the
	// driver-side half-cell asymmetry dominates).
	NoRichardson bool
}

func (c RatfunConfig) withDefaults() RatfunConfig {
	if c.Segments == 0 {
		c.Segments = 24
	}
	return c
}

// DelayRatfun measures the 50% delay from the exact analytic step
// response of the lumped ladder's rational transfer function. By default
// it combines ladders at n and n/2 segments by first-order Richardson
// extrapolation (d ≈ 2·d_n − d_{n/2}), cancelling the leading O(1/n)
// discretization error of the lumped approximation so the result
// estimates the distributed-line delay.
func DelayRatfun(ln tline.Line, d tline.Drive, cfg RatfunConfig) (float64, error) {
	cfg = cfg.withDefaults()
	if err := ln.Validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if !cfg.NoRichardson && cfg.Segments >= 8 {
		coarse := cfg
		coarse.Segments = cfg.Segments / 2
		coarse.NoRichardson = true
		fine := cfg
		fine.NoRichardson = true
		dc, err := DelayRatfun(ln, d, coarse)
		if err != nil {
			return 0, err
		}
		df, err := DelayRatfun(ln, d, fine)
		if err != nil {
			return 0, err
		}
		return 2*df - dc, nil
	}
	_, lt, ct := ln.Totals()
	t0 := math.Sqrt(lt * (ct + d.CL))
	num, den, err := tline.LadderTF(ln, d, cfg.Segments, cfg.Style, t0)
	if err != nil {
		return 0, err
	}
	h, err := ratfun.New(num, den)
	if err != nil {
		return 0, err
	}
	step, err := h.StepResponse()
	if err != nil {
		return 0, err
	}
	// Scan normalized time for the 0.5 crossing, then bisect. The step
	// response is of a unit step; amplitude scaling cancels at 50%.
	tMaxN := horizon(ln, d) / t0
	const scan = 2000
	prev := 0.0
	for i := 1; i <= scan*4; i++ {
		tn := tMaxN * float64(i) / scan
		if step(tn) >= 0.5 {
			x, err := numeric.Bisect(func(u float64) float64 { return step(u) - 0.5 }, prev, tn, tMaxN*1e-10)
			if err != nil {
				return 0, err
			}
			return x * t0, nil
		}
		prev = tn
	}
	return 0, errors.New("refeng: ratfun response never crossed 0.5")
}

// DelayExactTF measures the 50% delay by numerically inverting the exact
// distributed-line transfer function. m is the Euler parameter (0 =
// default).
func DelayExactTF(ln tline.Line, d tline.Drive, m int) (float64, error) {
	h, err := tline.ExactTF(ln, d)
	if err != nil {
		return 0, err
	}
	tMax := horizon(ln, d)
	tLo := tMax * 1e-6
	for attempt := 0; attempt < 4; attempt++ {
		x, err := laplace.CrossingTime(h, 0.5, tLo, tMax, m)
		if err == nil {
			return x, nil
		}
		tMax *= 2.5
	}
	return 0, errors.New("refeng: exact-TF response never crossed 0.5")
}

// Agreement reports the three engines' delays and their maximum relative
// spread for a driven line. It is the engine cross-validation used by
// tests.
type Agreement struct {
	MNA, Ratfun, ExactTF float64
	// Spread is max pairwise |a−b| / mean.
	Spread float64
}

// Validate runs all three engines and computes their spread.
func Validate(ln tline.Line, d tline.Drive) (Agreement, error) {
	var a Agreement
	var err error
	if a.MNA, err = DelayMNA(ln, d, MNAConfig{}); err != nil {
		return a, fmt.Errorf("refeng: MNA engine: %w", err)
	}
	if a.Ratfun, err = DelayRatfun(ln, d, RatfunConfig{}); err != nil {
		return a, fmt.Errorf("refeng: ratfun engine: %w", err)
	}
	if a.ExactTF, err = DelayExactTF(ln, d, 0); err != nil {
		return a, fmt.Errorf("refeng: exact-TF engine: %w", err)
	}
	mean := (a.MNA + a.Ratfun + a.ExactTF) / 3
	maxd := math.Max(math.Abs(a.MNA-a.Ratfun),
		math.Max(math.Abs(a.MNA-a.ExactTF), math.Abs(a.Ratfun-a.ExactTF)))
	a.Spread = maxd / mean
	return a, nil
}

// mnaSimulate is a small helper used by characterization tests: simulate
// a prebuilt ladder for the given horizon with sensible steps.
func mnaSimulate(lad *tline.Ladder, tEnd float64) (*mna.Result, error) {
	return mna.Simulate(lad.Ckt, mna.Options{
		Dt:     tEnd / 20000,
		TEnd:   tEnd,
		Probes: []int{lad.Out},
	})
}

// Method labels which estimator produced a DelaySmart result.
type Method int

// DelaySmart methods.
const (
	// MethodEq9 means the closed-form Eq. 9 value was trusted.
	MethodEq9 Method = iota
	// MethodExact means the exact-TF engine was used because the
	// configuration was outside Eq. 9's accuracy domain or in the
	// reflection-plateau regime.
	MethodExact
)

func (m Method) String() string {
	switch m {
	case MethodEq9:
		return "eq9"
	case MethodExact:
		return "exact"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// DelaySmart is the production estimator: it returns the closed-form
// Eq. 9 delay when the configuration is inside the model's validated
// accuracy domain and away from the reflection-plateau regime, and
// otherwise falls back to the exact transmission-line engine. The
// returned Method reports which path was taken.
func DelaySmart(ln tline.Line, d tline.Drive) (float64, Method, error) {
	p, err := core.Analyze(ln, d)
	if err != nil {
		return 0, MethodEq9, err
	}
	if p.InAccuracyDomain() && !p.DelayPlateauRisk() {
		v, err := core.Delay(ln, d)
		return v, MethodEq9, err
	}
	v, err := DelayExactTF(ln, d, 0)
	return v, MethodExact, err
}
