package rlctree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"rlckit/internal/mna"
)

// retryCrossings is the reference the one-run crossing read is held
// to: the retry loop the tree engines used before crossing mode. It
// runs a full waveform to tEnd, reads every probe's crossing off it, and
// re-simulates from t = 0 with a 2.5× longer horizon, up to four
// attempts.
func retryCrossings(sim func(tEnd float64) (*mna.Result, error), probes []int, level, effDelay, tEnd float64) ([]float64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		res, err := sim(tEnd)
		if err != nil {
			return nil, err
		}
		out, err := waveformCrossings(res, probes, level, effDelay)
		if err == nil {
			return out, nil
		}
		tEnd *= 2.5
	}
	return nil, fmt.Errorf("a sink never crossed %g within the extended horizon", level)
}

// waveformCrossings reads each probe's crossing off a recorded
// waveform, less the effective step time.
func waveformCrossings(res *mna.Result, probes []int, level, effDelay float64) ([]float64, error) {
	out := make([]float64, len(probes))
	for k, p := range probes {
		w, err := res.Waveform(p)
		if err != nil {
			return nil, err
		}
		cross, err := w.CrossUp(level)
		if err != nil {
			return nil, err
		}
		out[k] = cross - effDelay
	}
	return out, nil
}

// TestCrossingRunMatchesRetryLoop: one budgeted crossing-mode run
// returns the retry loop's bits on the full-order, frozen and reduced
// engines — at the planned horizon, and with the plan shortened so the
// last crossing lands on the second, third or fourth attempt. Past the
// fourth both fail, the crossing run with mna.ErrNoCrossing.
func TestCrossingRunMatchesRetryLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *Tree
	}{{"Y", buildY(t)}, {"balanced", buildBalanced(t)}} {
		d := Drive{Rtr: 80}
		cfg := Config{}.withDefaults()
		table := closedTable(tc.tree, d)
		dt, delay, tEnd := tc.tree.transientPlan(d, cfg, table)
		ckt, nodeOf, err := tc.tree.ToCircuit(d, delay)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.tree.crossOptions(d, cfg, nodeOf, dt, tEnd)
		frz, err := mna.Freeze(ckt)
		if err != nil {
			t.Fatal(err)
		}
		horizon, tFast := tc.tree.timeScales(d, table)
		red, err := mna.Reduce(ckt, opts.Probes, mna.ReduceOptions{
			Freqs: treeProbeFreqs(horizon, tFast), MaxOrder: cfg.MaxOrder, ValTol: cfg.ValTol,
		})
		if err != nil {
			t.Fatalf("%s: reduce: %v", tc.name, err)
		}
		sims := []struct {
			name string
			sim  func(mna.Options) (*mna.Result, error)
		}{
			{"mna", func(o mna.Options) (*mna.Result, error) { return mna.Simulate(ckt, o) }},
			{"frozen", frz.Simulate},
			{"reduced", red.Simulate},
		}
		raw, err := runCrossings(sims[0].sim, opts, 0, "sink")
		if err != nil {
			t.Fatal(err)
		}
		last := 0.0
		for _, c := range raw {
			last = math.Max(last, c)
		}
		// Plan k puts the last crossing between attempt k-1's horizon
		// (0.48·last) and attempt k's (1.2·last).
		plans := []float64{tEnd}
		for k := 2; k <= 5; k++ {
			plans = append(plans, 1.2*last/math.Pow(2.5, float64(k-1)))
		}
		for _, s := range sims {
			for k, plan := range plans {
				tag := fmt.Sprintf("%s %s plan %d", tc.name, s.name, k+1)
				want, werr := retryCrossings(func(tEnd float64) (*mna.Result, error) {
					return s.sim(mna.Options{Dt: dt, TEnd: tEnd, Probes: opts.Probes})
				}, opts.Probes, opts.CrossLevel, delay-dt/2, plan)
				o := opts
				o.TEnd = plan
				got, gerr := runCrossings(s.sim, o, delay-dt/2, "sink")
				if k == 4 {
					if werr == nil || !errors.Is(gerr, mna.ErrNoCrossing) {
						t.Errorf("%s: past the last attempt: retry %v, crossing run %v", tag, werr, gerr)
					}
					continue
				}
				if werr != nil || gerr != nil {
					t.Fatalf("%s: retry %v, crossing run %v", tag, werr, gerr)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s sink %d: crossing run %v, retry loop %v", tag, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestTreeAnalysisMemoryIndependentOfSteps: an MNA tree analysis keeps
// no waveform, so its allocations and bytes do not grow with the step
// count (the allocation watchdog of BenchmarkSimulateLadder1000, one
// layer up).
func TestTreeAnalysisMemoryIndependentOfSteps(t *testing.T) {
	tr, d := bench64(t)
	measure := func(stepsPerScale int) (allocs, bytes float64) {
		return allocsAndBytes(func() {
			if _, err := Analyze(tr, d, Config{Engine: EngineMNA, StepsPerScale: stepsPerScale}); err != nil {
				panic(err)
			}
		})
	}
	a1, b1 := measure(1500)
	a2, b2 := measure(6000)
	// Recorded waveforms would grow fourfold between the two step
	// counts; the slack only absorbs runtime bookkeeping.
	if a2 > 1.01*a1 || b2 > 1.1*b1 {
		t.Errorf("tree analysis grows with its step count: %.0f allocs/%.0f B at 1500 steps per scale vs %.0f/%.0f at 6000",
			a1, b1, a2, b2)
	}
}

// allocsAndBytes returns run's mean heap allocation count and bytes.
func allocsAndBytes(run func()) (allocs, bytes float64) {
	run()
	const n = 3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}
