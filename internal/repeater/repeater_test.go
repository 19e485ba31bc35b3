package repeater

import (
	"math"
	"testing"

	"rlckit/internal/tline"
)

// testBuffer is a plausible deep-submicron minimum buffer: R0·C0 = 1 ps.
var testBuffer = Buffer{R0: 1000, C0: 1e-15}

// lineWithTLR builds a 1 cm, Ct = 1 pF, Rt = 1 kΩ line whose inductance
// is chosen to produce the requested T_{L/R} against testBuffer.
func lineWithTLR(tlr float64) tline.Line {
	rt := 1000.0
	lt := tlr * testBuffer.R0 * testBuffer.C0 * rt
	if lt == 0 {
		lt = 1e-15 // T≈0 but still a valid RLC line
	}
	return tline.FromTotals(rt, lt, 1e-12, 0.01)
}

func relErr(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

func TestBufferValidate(t *testing.T) {
	if err := testBuffer.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Buffer{
		{R0: 0, C0: 1e-15},
		{R0: 1000, C0: 0},
		{R0: math.NaN(), C0: 1e-15},
		{R0: 1000, C0: 1e-15, Amin: -1},
		{R0: 1000, C0: 1e-15, Vdd: -2},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad buffer %d accepted", i)
		}
	}
}

func TestTLR(t *testing.T) {
	ln := lineWithTLR(5)
	got, err := TLR(ln, testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got, 5) > 1e-9 {
		t.Errorf("TLR = %g, want 5", got)
	}
	if _, err := TLR(tline.Line{}, testBuffer); err == nil {
		t.Error("bad line accepted")
	}
	if _, err := TLR(ln, Buffer{}); err == nil {
		t.Error("bad buffer accepted")
	}
	lossless := tline.FromTotals(0, 1e-8, 1e-12, 0.01)
	v, err := TLR(lossless, testBuffer)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("lossless TLR = %g, %v (want +Inf)", v, err)
	}
}

func TestBakogluKnownValues(t *testing.T) {
	ln := lineWithTLR(0)
	h, k, err := BakogluHK(ln, testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	// h = sqrt(R0·Ct/(Rt·C0)) = sqrt(1000·1e-12/(1000·1e-15)) = sqrt(1000).
	if relErr(h, math.Sqrt(1000)) > 1e-12 {
		t.Errorf("h = %g", h)
	}
	// k = sqrt(Rt·Ct/(2R0C0)) = sqrt(1e-9/2e-12) = sqrt(500).
	if relErr(k, math.Sqrt(500)) > 1e-12 {
		t.Errorf("k = %g", k)
	}
	if _, _, err := BakogluHK(tline.FromTotals(0, 1e-8, 1e-12, 0.01), testBuffer); err == nil {
		t.Error("lossless Bakoglu accepted")
	}
}

func TestErrorFactors(t *testing.T) {
	hp, kp := ErrorFactors(0)
	if hp != 1 || kp != 1 {
		t.Errorf("T=0 factors %g, %g", hp, kp)
	}
	hpNeg, kpNeg := ErrorFactors(-3)
	if hpNeg != 1 || kpNeg != 1 {
		t.Error("negative T should clamp to 0")
	}
	prevH, prevK := 1.0, 1.0
	for tlr := 0.5; tlr <= 10; tlr += 0.5 {
		hp, kp := ErrorFactors(tlr)
		if hp >= prevH || kp >= prevK {
			t.Fatalf("factors not decreasing at T=%g", tlr)
		}
		if hp <= 0 || kp <= 0 {
			t.Fatalf("factors must stay positive")
		}
		prevH, prevK = hp, kp
	}
}

func TestAreaIncreasePaperAnchors(t *testing.T) {
	// Paper: "%area increase for TL/R = 3 is 154% and for TL/R = 5 is
	// 435%" — our Eq. 18 transcription must hit these exactly.
	if got := AreaIncrease(3); math.Abs(got-154) > 1 {
		t.Errorf("AreaIncrease(3) = %.1f%%, want ≈154%%", got)
	}
	if got := AreaIncrease(5); math.Abs(got-435) > 2 {
		t.Errorf("AreaIncrease(5) = %.1f%%, want ≈435%%", got)
	}
	if AreaIncrease(0) != 0 {
		t.Error("AreaIncrease(0) should be 0")
	}
	if AreaIncrease(-1) != 0 {
		t.Error("negative T should clamp")
	}
}

func TestClosedFormReducesToBakoglu(t *testing.T) {
	ln := lineWithTLR(0)
	hRC, kRC, _ := BakogluHK(ln, testBuffer)
	h, k, err := ClosedFormHK(ln, testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(h, hRC) > 1e-6 || relErr(k, kRC) > 1e-6 {
		t.Errorf("T→0: (%g, %g) vs Bakoglu (%g, %g)", h, k, hRC, kRC)
	}
}

func TestKoptDecreasesWithInductance(t *testing.T) {
	// Paper: "as inductance effects increase, the optimum number of
	// repeaters ... decreases."
	prev := math.Inf(1)
	for _, tlr := range []float64{0, 1, 2, 4, 8} {
		_, k, err := ClosedFormHK(lineWithTLR(tlr), testBuffer)
		if err != nil {
			t.Fatal(err)
		}
		if k >= prev {
			t.Fatalf("k_opt did not decrease at T=%g (%g >= %g)", tlr, k, prev)
		}
		prev = k
	}
}

func TestClosedFormOptimalAtZeroT(t *testing.T) {
	// At T ≈ 0 (vanishing inductance) the Eq. 9 objective reduces to the
	// RC expression whose analytic optimum is Bakoglu's solution — the
	// closed form must sit at the numerical optimum of that objective.
	ln := lineWithTLR(0)
	h, k, err := ClosedFormHK(ln, testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	dClosed, err := TotalDelay(ln, testBuffer, h, k)
	if err != nil {
		t.Fatal(err)
	}
	_, _, dOpt, err := OptimizeEq9(ln, testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	gap := (dClosed - dOpt) / dOpt
	if gap < -1e-9 || gap > 1e-3 {
		t.Errorf("T=0: closed form %.5g%% above Eq.9 optimum", gap*100)
	}
}

func TestClosedFormNearTrueOptimumModerateT(t *testing.T) {
	// Against the exact-engine optimum, the closed-form plan's delay
	// penalty stays small in the practically relevant T ≤ 3 regime
	// (measured: ≈0.6% at T=1, ≈2.7% at T=3).
	for _, tlr := range []float64{1, 3} {
		ln := lineWithTLR(tlr)
		h, k, err := ClosedFormHK(ln, testBuffer)
		if err != nil {
			t.Fatal(err)
		}
		dClosed, err := TrueTotalDelay(ln, testBuffer, h, k)
		if err != nil {
			t.Fatal(err)
		}
		_, _, dOpt, err := OptimizeTrue(ln, testBuffer)
		if err != nil {
			t.Fatal(err)
		}
		gap := (dClosed - dOpt) / dOpt
		if gap < -0.002 {
			t.Errorf("T=%g: closed form beat the true optimizer by %.3g%% — optimizer failed", tlr, -gap*100)
		}
		if gap > 0.05 {
			t.Errorf("T=%g: closed-form delay %.3g%% above true optimum (want ≤5%%)", tlr, gap*100)
		}
	}
}

func TestDelayIncreaseAnchors(t *testing.T) {
	// Paper anchors: 10%/20%/30% at T = 3/5/10. Measured with the exact
	// engine: RC-vs-closed-form (Eq. 16) gives ≈+5% at T=3 and ≈+3% at
	// T=5 (and inverts at large T where Eq. 15 over-shrinks k);
	// RC-vs-true-optimum preserves the paper's monotone shape at ≈60%
	// magnitude. `paperfigs -increase` prints both; here we pin the
	// measured behaviour.
	got3, err := DelayIncrease(lineWithTLR(3), testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	if got3 < 2 || got3 > 10 {
		t.Errorf("DelayIncrease(T=3) = %.1f%%, expected ≈5%%", got3)
	}
	// The paper's closed-form Eq. 17 fit must hit the paper's anchors.
	anchors := []struct{ tlr, want float64 }{{3, 10}, {5, 20}, {10, 30}}
	for _, a := range anchors {
		if ap := DelayIncreaseApprox(a.tlr); math.Abs(ap-a.want) > 2 {
			t.Errorf("DelayIncreaseApprox(%g) = %.1f%%, want ≈%.0f%%", a.tlr, ap, a.want)
		}
	}
	if DelayIncreaseApprox(-1) != DelayIncreaseApprox(0) {
		t.Error("negative T should clamp")
	}
}

func TestDelayIncreaseVsOptimumMonotone(t *testing.T) {
	prev := -1.0
	for _, tlr := range []float64{1, 3, 5} {
		got, err := DelayIncreaseVsOptimum(lineWithTLR(tlr), testBuffer)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev-0.5 { // small numerical slack
			t.Fatalf("increase vs optimum fell at T=%g: %.2f%% after %.2f%%", tlr, got, prev)
		}
		if got < -0.3 {
			t.Fatalf("RC design beat the true optimum at T=%g (%.3f%%)", tlr, got)
		}
		prev = got
	}
	if prev < 5 {
		t.Errorf("increase vs optimum at T=5 only %.1f%%, expected ≳10%%", prev)
	}
}

func TestDesignPlans(t *testing.T) {
	ln := lineWithTLR(5)
	for _, m := range []Model{RLC, RC} {
		p, err := Design(ln, testBuffer, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if p.H <= 0 || p.K <= 0 || p.KInt < 1 || p.HForKInt <= 0 {
			t.Errorf("%v: degenerate plan %+v", m, p)
		}
		if p.TotalDelay <= 0 || p.TotalDelayInt <= 0 {
			t.Errorf("%v: non-positive delays %+v", m, p)
		}
		if p.Area <= 0 || p.AreaInt <= 0 || p.SwitchEnergy <= 0 {
			t.Errorf("%v: non-positive costs %+v", m, p)
		}
		if math.Abs(p.TLR-5) > 1e-6 {
			t.Errorf("%v: TLR = %g", m, p.TLR)
		}
	}
	rc, _ := Design(ln, testBuffer, RC)
	rlc, _ := Design(ln, testBuffer, RLC)
	// Grade both plans with the exact engine: at T=5 the RLC-aware plan
	// must be at least as fast.
	dRC, err := TrueTotalDelay(ln, testBuffer, rc.H, rc.K)
	if err != nil {
		t.Fatal(err)
	}
	dRLC, err := TrueTotalDelay(ln, testBuffer, rlc.H, rlc.K)
	if err != nil {
		t.Fatal(err)
	}
	if dRC < dRLC {
		t.Error("RC-designed delay beat RLC-designed delay (true engine)")
	}
	if rc.Area < rlc.Area {
		t.Error("RC design should use more repeater area")
	}
	if rc.SwitchEnergy < rlc.SwitchEnergy {
		t.Error("RC design should burn more switching energy")
	}
	if _, err := Design(ln, testBuffer, Model(7)); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelString(t *testing.T) {
	if RLC.String() != "RLC" || RC.String() != "RC" || Model(7).String() == "" {
		t.Error("model strings")
	}
}

func TestSectionDelayValidation(t *testing.T) {
	ln := lineWithTLR(1)
	if _, err := SectionDelay(ln, testBuffer, 0, 3); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := SectionDelay(ln, testBuffer, 3, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TotalDelay(tline.Line{}, testBuffer, 1, 1); err == nil {
		t.Error("bad line accepted")
	}
	if _, err := TotalDelay(ln, Buffer{}, 1, 1); err == nil {
		t.Error("bad buffer accepted")
	}
}

func TestEnergyIncreasePositive(t *testing.T) {
	got, err := EnergyIncrease(lineWithTLR(5), testBuffer)
	if err != nil {
		t.Fatal(err)
	}
	// RC designs use several times more buffer capacitance at T=5; the
	// energy increase must be substantial and positive.
	if got < 10 {
		t.Errorf("EnergyIncrease(T=5) = %.1f%%, expected sizeable positive", got)
	}
}

func TestRepeatersHurtLCLines(t *testing.T) {
	// Paper: for an LC-dominated line the delay is linear in length, so
	// partitioning adds gate delay without reducing line delay — one
	// section must beat a multi-repeater plan under the exact engine.
	ln := tline.FromTotals(50, 2e-8, 1e-12, 0.01) // ζ(unloaded) ≈ 0.09
	h := 40.0
	d1, err := TrueTotalDelay(ln, testBuffer, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := TrueTotalDelay(ln, testBuffer, h, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d8 < d1 {
		t.Errorf("partitioning an LC line helped: k=8 gives %.4g < k=1 gives %.4g", d8, d1)
	}
}
