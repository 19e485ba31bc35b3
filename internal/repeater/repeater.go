// Package repeater implements Section III of the paper: optimum repeater
// insertion in RLC interconnect.
//
// A line of total impedances (Rt, Lt, Ct) is divided into k equal
// sections, each driven by a buffer h times larger than a minimum-size
// buffer with output resistance R0 and input capacitance C0 (Fig. 3).
// Each section therefore sees a driver resistance R0/h, a load
// capacitance h·C0, and line impedances (Rt/k, Lt/k, Ct/k); the total
// delay is k times the Eq. 9 section delay.
//
// The paper's closed forms, reducing to Bakoglu's RC solution at
// T_{L/R} → 0:
//
//	T_{L/R} = (Lt/Rt)/(R0·C0)                                (Eq. 13)
//	h_opt = sqrt(R0·Ct/(Rt·C0)) / [1+0.16·T³]^0.24           (Eq. 14)
//	k_opt = sqrt(Rt·Ct/(2·R0·C0)) / [1+0.18·T³]^0.3          (Eq. 15)
//
// plus the cost of ignoring inductance:
//
//	%delay increase (RC-designed repeaters on an RLC line)   (Eq. 16/17)
//	%area increase  = 100·([1+0.18T³]^0.3·[1+0.16T³]^0.24−1) (Eq. 18)
package repeater

import (
	"errors"
	"fmt"
	"math"

	"rlckit/internal/core"
	"rlckit/internal/numeric"
	"rlckit/internal/refeng"
	"rlckit/internal/tline"
)

// Buffer characterizes the minimum-size repeater of a technology.
type Buffer struct {
	// R0 is the minimum-size buffer output resistance in ohms.
	R0 float64
	// C0 is the minimum-size buffer input capacitance in farads.
	C0 float64
	// Amin is the minimum buffer area (any consistent unit; defaults
	// to 1 so areas read as multiples of a minimum buffer).
	Amin float64
	// Vdd is the supply voltage for energy estimates (default 1 V).
	Vdd float64
}

// Validate checks buffer parameters.
func (b Buffer) Validate() error {
	if b.R0 <= 0 || math.IsNaN(b.R0) || math.IsInf(b.R0, 0) {
		return fmt.Errorf("repeater: R0 must be positive, got %g", b.R0)
	}
	if b.C0 <= 0 || math.IsNaN(b.C0) || math.IsInf(b.C0, 0) {
		return fmt.Errorf("repeater: C0 must be positive, got %g", b.C0)
	}
	if b.Amin < 0 || b.Vdd < 0 {
		return errors.New("repeater: Amin and Vdd must be non-negative")
	}
	return nil
}

func (b Buffer) amin() float64 {
	if b.Amin == 0 {
		return 1
	}
	return b.Amin
}

func (b Buffer) vdd() float64 {
	if b.Vdd == 0 {
		return 1
	}
	return b.Vdd
}

// TLR returns the inductance figure of merit T_{L/R} (Eq. 13).
func TLR(ln tline.Line, b Buffer) (float64, error) {
	if err := ln.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	rt, lt, _ := ln.Totals()
	if rt == 0 {
		return math.Inf(1), nil
	}
	return (lt / rt) / (b.R0 * b.C0), nil
}

// ErrorFactors returns the paper's inductance correction factors
// h′(T) = [1+0.16T³]^−0.24 and k′(T) = [1+0.18T³]^−0.3 (Fig. 4), both 1
// at T = 0 and decreasing in T.
func ErrorFactors(tlr float64) (hp, kp float64) {
	if tlr < 0 {
		tlr = 0
	}
	t3 := tlr * tlr * tlr
	hp = math.Pow(1+0.16*t3, -0.24)
	kp = math.Pow(1+0.18*t3, -0.3)
	return hp, kp
}

// BakogluHK returns the classic RC-optimal repeater size and count
// (Eq. 11): h = sqrt(R0·Ct/(Rt·C0)), k = sqrt(Rt·Ct/(2·R0·C0)).
func BakogluHK(ln tline.Line, b Buffer) (h, k float64, err error) {
	if err := ln.Validate(); err != nil {
		return 0, 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, 0, err
	}
	rt, _, ct := ln.Totals()
	if rt == 0 {
		return 0, 0, errors.New("repeater: Bakoglu solution undefined for a lossless line (Rt = 0)")
	}
	h = math.Sqrt(b.R0 * ct / (rt * b.C0))
	k = math.Sqrt(rt * ct / (2 * b.R0 * b.C0))
	return h, k, nil
}

// ClosedFormHK returns the paper's RLC-optimal repeater size and count
// (Eqs. 14 and 15).
func ClosedFormHK(ln tline.Line, b Buffer) (h, k float64, err error) {
	hRC, kRC, err := BakogluHK(ln, b)
	if err != nil {
		return 0, 0, err
	}
	t, err := TLR(ln, b)
	if err != nil {
		return 0, 0, err
	}
	hp, kp := ErrorFactors(t)
	return hRC * hp, kRC * kp, nil
}

// SectionDelay returns the Eq. 9 delay of one of k sections with
// repeaters of size h (Eq. 19/20 of the appendix).
func SectionDelay(ln tline.Line, b Buffer, h, k float64) (float64, error) {
	if h <= 0 || k <= 0 {
		return 0, fmt.Errorf("repeater: h and k must be positive (h=%g, k=%g)", h, k)
	}
	rt, lt, ct := ln.Totals()
	return core.DelayTotals(rt/k, lt/k, ct/k, b.R0/h, h*b.C0)
}

// TotalDelay returns the total repeater-system delay k·t_pd,section for
// an arbitrary (h, k).
func TotalDelay(ln tline.Line, b Buffer, h, k float64) (float64, error) {
	if err := ln.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	sec, err := SectionDelay(ln, b, h, k)
	if err != nil {
		return 0, err
	}
	return k * sec, nil
}

// OptimizeEq9 minimizes the Eq. 9-based total delay over continuous
// (h, k) > 0 by Nelder–Mead in log space, seeded at the closed-form
// solution — the optimization problem the paper's appendix poses.
//
// Reproduction note: because Eq. 9 depends on the section only through
// ζ, the k·(1/ωnsec) product makes section count nearly free as ζsec→0
// (each section costs only its time of flight), so for large T_{L/R}
// this objective is minimized at *larger* k than Eqs. 14/15 predict.
// The physically meaningful optimum — which penalizes each extra
// repeater's gate-charging time that Eq. 9's ζ-only fit washes out — is
// OptimizeTrue. `paperfigs -fig4 -true` prints the measured comparison
// (E3/E4).
func OptimizeEq9(ln tline.Line, b Buffer) (h, k, delay float64, err error) {
	h0, k0, err := ClosedFormHK(ln, b)
	if err != nil {
		return 0, 0, 0, err
	}
	if k0 < 1e-3 {
		k0 = 1e-3
	}
	obj := func(x []float64) float64 {
		hh, kk := math.Exp(x[0]), math.Exp(x[1])
		d, err2 := TotalDelay(ln, b, hh, kk)
		if err2 != nil {
			return math.Inf(1)
		}
		return d
	}
	x, fx := numeric.NelderMead(obj, []float64{math.Log(h0), math.Log(k0)}, 0.35, 1e-13, 4000)
	return math.Exp(x[0]), math.Exp(x[1]), fx, nil
}

// TrueTotalDelay evaluates the repeater system with the exact
// transmission-line engine instead of Eq. 9: k times the
// numerically-inverted exact section delay. It is the reference that
// grades both repeater design models.
func TrueTotalDelay(ln tline.Line, b Buffer, h, k float64) (float64, error) {
	if err := ln.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if h <= 0 || k <= 0 {
		return 0, fmt.Errorf("repeater: h and k must be positive (h=%g, k=%g)", h, k)
	}
	rt, lt, ct := ln.Totals()
	sec := tline.FromTotals(rt/k, lt/k, ct/k, ln.Length/k)
	d := tline.Drive{Rtr: b.R0 / h, CL: h * b.C0}
	v, err := refeng.DelayExactTF(sec, d, 0)
	if err != nil {
		return 0, err
	}
	return k * v, nil
}

// OptimizeTrue minimizes TrueTotalDelay over continuous (h, k) > 0,
// seeded at the closed-form solution. This is the physics-grounded
// optimum; the measured k′(T) = k_opt/k_opt(RC) curves it produces have
// the paper's qualitative shape (fewer repeaters as inductance grows)
// but decrease less steeply than Eq. 15 at large T_{L/R}.
func OptimizeTrue(ln tline.Line, b Buffer) (h, k, delay float64, err error) {
	h0, k0, err := ClosedFormHK(ln, b)
	if err != nil {
		return 0, 0, 0, err
	}
	if k0 < 0.5 {
		k0 = 0.5
	}
	obj := func(x []float64) float64 {
		d, err2 := TrueTotalDelay(ln, b, math.Exp(x[0]), math.Exp(x[1]))
		if err2 != nil {
			return math.Inf(1)
		}
		return d
	}
	x, fx := numeric.NelderMead(obj, []float64{math.Log(h0), math.Log(k0)}, 0.6, 1e-9, 400)
	return math.Exp(x[0]), math.Exp(x[1]), fx, nil
}

// Plan is a complete repeater insertion design.
type Plan struct {
	// H is the buffer size multiple; K the section count (continuous).
	H, K float64
	// KInt is K rounded to the best integer >= 1 with H re-optimized.
	KInt int
	// HForKInt is the re-optimized size for KInt sections.
	HForKInt float64
	// TLR is the line's inductance figure of merit.
	TLR float64
	// TotalDelay is the continuous-optimum total delay in seconds;
	// TotalDelayInt is the delay of the integer plan.
	TotalDelay, TotalDelayInt float64
	// Area is H·K·Amin (continuous); AreaInt uses the integer plan.
	Area, AreaInt float64
	// SwitchEnergy is the energy per output transition of the integer
	// plan: (Ct + CL_buffers)·Vdd² with CL_buffers = KInt·HForKInt·C0.
	SwitchEnergy float64
}

// Model selects which impedance model a Design call uses for (h, k).
type Model int

// Design models.
const (
	// RLC uses the paper's closed forms (Eqs. 14/15).
	RLC Model = iota
	// RC ignores inductance (Bakoglu, Eq. 11) — the baseline whose cost
	// Eqs. 16-18 quantify.
	RC
)

func (m Model) String() string {
	switch m {
	case RLC:
		return "RLC"
	case RC:
		return "RC"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Design produces a repeater plan for the line under the given model.
// Note the delay reported is always evaluated with the full RLC delay
// model (Eq. 9) — designing with RC and evaluating with RLC is exactly
// the paper's Eq. 16 scenario.
func Design(ln tline.Line, b Buffer, m Model) (Plan, error) {
	var h, k float64
	var err error
	switch m {
	case RLC:
		h, k, err = ClosedFormHK(ln, b)
	case RC:
		h, k, err = BakogluHK(ln, b)
	default:
		return Plan{}, fmt.Errorf("repeater: unknown model %v", m)
	}
	if err != nil {
		return Plan{}, err
	}
	t, err := TLR(ln, b)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{H: h, K: k, TLR: t}
	if p.TotalDelay, err = TotalDelay(ln, b, h, k); err != nil {
		return Plan{}, err
	}
	p.Area = h * k * b.amin()

	// Integer plan: try floor and ceil of k (>= 1), re-optimize h for
	// each by golden section, keep the faster.
	best := math.Inf(1)
	for _, ki := range []int{int(math.Floor(k)), int(math.Ceil(k))} {
		if ki < 1 {
			ki = 1
		}
		hOpt := optimizeHForK(ln, b, float64(ki), h)
		d, err2 := TotalDelay(ln, b, hOpt, float64(ki))
		if err2 != nil {
			continue
		}
		if d < best {
			best = d
			p.KInt = ki
			p.HForKInt = hOpt
			p.TotalDelayInt = d
		}
	}
	if math.IsInf(best, 1) {
		return Plan{}, errors.New("repeater: no feasible integer plan")
	}
	p.AreaInt = float64(p.KInt) * p.HForKInt * b.amin()
	_, _, ct := ln.Totals()
	v := b.vdd()
	p.SwitchEnergy = (ct + float64(p.KInt)*p.HForKInt*b.C0) * v * v
	return p, nil
}

// optimizeHForK minimizes total delay over h at fixed k.
func optimizeHForK(ln tline.Line, b Buffer, k, hSeed float64) float64 {
	obj := func(lh float64) float64 {
		d, err := TotalDelay(ln, b, math.Exp(lh), k)
		if err != nil {
			return math.Inf(1)
		}
		return d
	}
	l0 := math.Log(hSeed)
	x, _ := numeric.MinimizeScalar(obj, l0-1.5, l0+1.5, 1e-10)
	return math.Exp(x)
}

// DelayIncrease computes Eq. 16 with the exact line engine: the
// percentage increase in total delay from designing the repeaters with
// the RC model (Eq. 11) instead of the RLC closed forms (Eqs. 14/15),
// with both systems evaluated by TrueTotalDelay.
func DelayIncrease(ln tline.Line, b Buffer) (float64, error) {
	hRC, kRC, err := BakogluHK(ln, b)
	if err != nil {
		return 0, err
	}
	hC, kC, err := ClosedFormHK(ln, b)
	if err != nil {
		return 0, err
	}
	dRC, err := TrueTotalDelay(ln, b, hRC, kRC)
	if err != nil {
		return 0, err
	}
	dRLC, err := TrueTotalDelay(ln, b, hC, kC)
	if err != nil {
		return 0, err
	}
	return 100 * (dRC - dRLC) / dRLC, nil
}

// DelayIncreaseVsOptimum is the sharper question behind Eq. 16: how much
// slower is the RC-designed (Bakoglu) repeater system than the *true*
// inductance-aware optimum, with both evaluated by the exact engine.
// This is monotone in T_{L/R} (measured ≈ +8% at T=3, +13% at T=5,
// +19% at T=10 for the canonical test line — same shape as the paper's
// 10/20/30%, at roughly 60% of the magnitude).
func DelayIncreaseVsOptimum(ln tline.Line, b Buffer) (float64, error) {
	hRC, kRC, err := BakogluHK(ln, b)
	if err != nil {
		return 0, err
	}
	dRC, err := TrueTotalDelay(ln, b, hRC, kRC)
	if err != nil {
		return 0, err
	}
	_, _, dOpt, err := OptimizeTrue(ln, b)
	if err != nil {
		return 0, err
	}
	return 100 * (dRC - dOpt) / dOpt, nil
}

// DelayIncreaseApprox is the closed-form fit of the Eq. 16 curve as a
// function of T_{L/R} alone (the paper's Eq. 17; the printed equation is
// OCR-damaged, so this fit was re-derived against the paper's stated
// anchor values ≈10% at T=3, ≈20% at T=5 and ≈30% at T=10):
//
//	%Increase(T) ≈ 30 / (1 + 0.5·e^(−T/4) + 23·e^(−0.8·T))
func DelayIncreaseApprox(tlr float64) float64 {
	if tlr < 0 {
		tlr = 0
	}
	return 30 / (1 + 0.5*math.Exp(-tlr/4) + 23*math.Exp(-0.8*tlr))
}

// AreaIncrease returns Eq. 18: the percentage extra repeater area an
// RC-model design uses relative to the RLC design,
// %AI = 100·{[1+0.18T³]^0.3 · [1+0.16T³]^0.24 − 1}.
func AreaIncrease(tlr float64) float64 {
	if tlr < 0 {
		tlr = 0
	}
	hp, kp := ErrorFactors(tlr)
	return 100 * (1/(hp*kp) - 1)
}

// EnergyIncrease returns the percentage extra switching energy of the
// RC-designed repeater system relative to the RLC design — the paper's
// qualitative power claim, quantified with the (Ct + k·h·C0)·Vdd² model.
func EnergyIncrease(ln tline.Line, b Buffer) (float64, error) {
	rcPlan, err := Design(ln, b, RC)
	if err != nil {
		return 0, err
	}
	rlcPlan, err := Design(ln, b, RLC)
	if err != nil {
		return 0, err
	}
	return 100 * (rcPlan.SwitchEnergy - rlcPlan.SwitchEnergy) / rlcPlan.SwitchEnergy, nil
}
