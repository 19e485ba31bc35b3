package rlckit_test

import (
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/core"
	"rlckit/internal/mna"
	"rlckit/internal/numeric"
	"rlckit/internal/paper"
	"rlckit/internal/refeng"
	"rlckit/internal/repeater"
	"rlckit/internal/tline"
)

// --- One benchmark per paper artifact (experiment ids per internal/paper) ---

// BenchmarkTable1 regenerates E1: the full 36-cell Eq. 9 vs simulation
// grid. Reported metrics: worst and mean model error in percent.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _, err := paper.Table1()
		if err != nil {
			b.Fatal(err)
		}
		s := paper.Stats(cells)
		b.ReportMetric(s.MaxErrPct, "worst-err-%")
		b.ReportMetric(s.MeanErrPct, "mean-err-%")
	}
}

// BenchmarkFig2 regenerates E2: scaled delay vs ζ families.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.Fig2([]float64{0.4, 0.9, 1.5, 2.1})
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, p := range pts {
			if p.RTCT <= 1 {
				e := p.ErrPctVsEq9
				if e < 0 {
					e = -e
				}
				if e > worst {
					worst = e
				}
			}
		}
		b.ReportMetric(worst, "worst-err-%")
	}
}

// BenchmarkFig4h regenerates E3: the h′(T) error factor curve against
// the Eq. 9-objective optimizer.
func BenchmarkFig4h(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.Fig4([]float64{0.5, 2, 5}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].HpClosed, "hprime@T5")
	}
}

// BenchmarkFig4k regenerates E4: the k′(T) error factor curve.
func BenchmarkFig4k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.Fig4([]float64{0.5, 2, 5}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].KpClosed, "kprime@T5")
	}
}

// BenchmarkDelayIncrease regenerates E5: the Eq. 16 delay-increase curve
// (exact engine, closed-form designs).
func BenchmarkDelayIncrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.Increases([]float64{1, 3, 5}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].DelayEq16Pct, "inc@T3-%")
	}
}

// BenchmarkAreaIncrease regenerates E6: the Eq. 18 area-increase curve
// including the paper's 154%/435% anchors.
func BenchmarkAreaIncrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a3 := repeater.AreaIncrease(3)
		a5 := repeater.AreaIncrease(5)
		b.ReportMetric(a3, "area@T3-%")
		b.ReportMetric(a5, "area@T5-%")
	}
}

// BenchmarkLengthScaling regenerates E7: delay vs length transition.
func BenchmarkLengthScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.LengthScaling(2e-3, 8e-2, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].LocalExponent, "long-exponent")
		b.ReportMetric(pts[1].LocalExponent, "short-exponent")
	}
}

// BenchmarkRepeaterOptimality regenerates E8: the closed-form plan's
// delay gap to the numerical optima.
func BenchmarkRepeaterOptimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gaps, _, err := paper.Optimality([]float64{2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gaps[0].TrueGapPct, "true-gap-%")
	}
}

// BenchmarkScalingTrend regenerates E9: the technology scaling trend.
func BenchmarkScalingTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.ScalingTrend()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].TLR, "TLR@130nm")
	}
}

// --- Ablation benches ---

// benchLine is the moderate Table-1 configuration used by ablations.
var benchLine = tline.FromTotals(1000, 1e-7, 1e-12, 0.01)
var benchDrive = tline.Drive{Rtr: 500, CL: 5e-13}

// BenchmarkAblationSegments measures the MNA engine's cost/accuracy
// trade against ladder segment count.
func BenchmarkAblationSegments(b *testing.B) {
	exact, err := refeng.DelayExactTF(benchLine, benchDrive, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{20, 60, 180} {
		b.Run(map[int]string{20: "n20", 60: "n60", 180: "n180"}[n], func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				got, err = refeng.DelayMNA(benchLine, benchDrive, refeng.MNAConfig{Segments: n})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*(got-exact)/exact, "err-%")
		})
	}
}

// BenchmarkAblationIntegrator compares trapezoidal vs backward-Euler on
// the underdamped line.
func BenchmarkAblationIntegrator(b *testing.B) {
	under := tline.FromTotals(500, 1e-6, 1e-12, 0.01)
	d := tline.Drive{Rtr: 500, CL: 1e-13}
	exact, err := refeng.DelayExactTF(under, d, 0)
	if err != nil {
		b.Fatal(err)
	}
	// A sorted slice, not a map: subtests must appear in a deterministic
	// order so -bench output is comparable run to run.
	methods := []struct {
		name string
		m    mna.Method
	}{
		{"backward-euler", mna.BackwardEuler},
		{"trapezoidal", mna.Trapezoidal},
	}
	for _, mm := range methods {
		b.Run(mm.name, func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				got, err = refeng.DelayMNA(under, d, refeng.MNAConfig{Method: mm.m})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*(got-exact)/exact, "err-%")
		})
	}
}

// --- Engine micro-benchmarks ---

func BenchmarkEq9Delay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Delay(benchLine, benchDrive); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactTFDelay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refeng.DelayExactTF(benchLine, benchDrive, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRatfunDelay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refeng.DelayRatfun(benchLine, benchDrive, refeng.RatfunConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMNADelay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refeng.DelayMNA(benchLine, benchDrive, refeng.MNAConfig{Segments: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLadder1000 is the allocation watchdog for the MNA
// step loop: a 1000-segment transient whose allocs/op — reported via
// ReportAllocs — must stay independent of the step count, i.e. the
// steady-state loop allocates nothing per timestep.
func BenchmarkSimulateLadder1000(b *testing.B) {
	lad, err := tline.BuildLadder(benchLine, benchDrive, 1000, tline.Pi, 0)
	if err != nil {
		b.Fatal(err)
	}
	_, lt, ct := benchLine.Totals()
	tLC := math.Sqrt(lt * (ct + benchDrive.CL))
	dt := tLC / 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mna.Simulate(lad.Ckt, mna.Options{
			Dt:     dt,
			TEnd:   500 * dt,
			Probes: []int{lad.Out},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyRootsLadder(b *testing.B) {
	_, lt, ct := benchLine.Totals()
	t0 := math.Sqrt(lt * (ct + benchDrive.CL))
	_, den, err := tline.LadderTF(benchLine, benchDrive, 16, tline.Pi, t0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if roots := den.Roots(); len(roots) == 0 {
			b.Fatal("no roots")
		}
	}
}

// benchTreeSystem stamps, as triplets, the trapezoidal step matrix
// A = C/h + G/2 of a 64-sink RLC tree in MNA form — a 6-level binary
// tree driven through 40 Ω, each branch 18 Ω then 0.2 nH into a 25 fF
// node, 10 fF more on each leaf — and draws a right-hand side. It is
// the system BenchmarkBandLUSolve and BenchmarkTreeLUSolve both factor
// and solve: 381 unknowns, the shape of BenchmarkTreeDelay's tree.
func benchTreeSystem() (*numeric.Triplets, []float64) {
	const levels, h = 6, 1e-13
	branches := 1<<(levels+1) - 2
	nv := 2 + 2*branches // the source and root nodes, a mid and an end node per branch
	a := numeric.NewTriplets(nv + 1 + branches)
	g := func(i, j int, v float64) { a.Add(i, j, v/2) }
	resistor := func(p, q int, r float64) {
		g(p, p, 1/r)
		g(q, q, 1/r)
		g(p, q, -1/r)
		g(q, p, -1/r)
	}
	// Node 0 is the source, node 1 the root; branch i ends at node 2i+1
	// through mid node 2i, and row nv+i carries its inductor current.
	g(0, nv, 1)
	g(nv, 0, 1)
	resistor(0, 1, 40)
	a.Add(1, 1, 2e-15/h)
	end := func(i int) int { return 2*i + 1 }
	for i := 1; i <= branches; i++ {
		mid, node, j := 2*i, end(i), nv+i
		resistor(end((i-1)/2), mid, 18)
		g(mid, j, 1)
		g(node, j, -1)
		g(j, mid, 1)
		g(j, node, -1)
		a.Add(j, j, -0.2e-9/h)
		c := 25e-15
		if i >= branches/2 {
			c += 10e-15
		}
		a.Add(node, node, c/h)
	}
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return a, rhs
}

// BenchmarkBandLUSolve factors and solves benchTreeSystem with band LU
// (partial pivoting) in RCM order, as the MNA transient does for
// systems with a cycle.
func BenchmarkBandLUSolve(b *testing.B) {
	a, rhs := benchTreeSystem()
	perm := make([]int, a.N)
	for newIdx, orig := range numeric.RCM(numeric.Adjacency(a.N, a)) {
		perm[orig] = newIdx
	}
	kl, ku := numeric.PermutedBandwidth(perm, a)
	bm := numeric.NewBandMatrix(a.N, kl, ku)
	a.AddScaledToBand(bm, perm, 1)
	x := make([]float64, a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := numeric.FactorBandLU(bm)
		if err != nil {
			b.Fatal(err)
		}
		f.SolveTo(x, rhs)
	}
}

// BenchmarkTreeLUSolve factors and solves benchTreeSystem with the
// no-fill tree LU in its leaves-first order, as the MNA transient does
// for trees.
func BenchmarkTreeLUSolve(b *testing.B) {
	a, rhs := benchTreeSystem()
	tm := numeric.NewTreeMatrix(numeric.ForestOrder(a.N, a))
	a.AddScaledToTree(tm, 1)
	x := make([]float64, a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := numeric.FactorTreeLU(tm)
		if err != nil {
			b.Fatal(err)
		}
		f.SolveTo(x, rhs)
	}
}

// BenchmarkRefit regenerates E10: the Eq. 9 constants re-derived from
// simulation data.
func BenchmarkRefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := paper.Refit()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fitted.A, "A")
		b.ReportMetric(res.Fitted.C, "C")
	}
}

// BenchmarkRiseTimeSensitivity regenerates E11.
func BenchmarkRiseTimeSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.RiseTimeSensitivity(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].DelayRatio, "ratio@4x")
	}
}

// BenchmarkScreenCensus regenerates E12.
func BenchmarkScreenCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, _, err := paper.ScreenCensus(2026, 100)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].FractionRLC, "frac@130nm")
	}
}

// BenchmarkACAnalysisLadder measures the AC engine on an 80-segment
// ladder sweep.
func BenchmarkACAnalysisLadder(b *testing.B) {
	lad, err := tline.BuildLadder(benchLine, benchDrive, 80, tline.Pi, 0)
	if err != nil {
		b.Fatal(err)
	}
	freqs, err := mna.LogSpace(1e7, 1e10, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mna.AC(lad.Ckt, freqs, []int{lad.Out}); err != nil {
			b.Fatal(err)
		}
	}
}
