package mna

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"rlckit/internal/circuit"
)

// crossingsFromWaveforms reads each probe's first upward crossing of
// level off a waveform-mode result — the reference crossing mode must
// reproduce bit for bit.
func crossingsFromWaveforms(t *testing.T, res *Result, probes []int, level float64) []float64 {
	t.Helper()
	out := make([]float64, len(probes))
	for k, p := range probes {
		w, err := res.Waveform(p)
		if err != nil {
			t.Fatal(err)
		}
		if out[k], err = w.CrossUp(level); err != nil {
			t.Fatalf("probe %d: %v", p, err)
		}
	}
	return out
}

// TestCrossingModeMatchesWaveform: for the full-order, frozen and
// reduced step loops, a crossing-mode run's crossings are bit-identical
// to CrossUp on the recorded waveform of a long run, it keeps no
// waveform, and it stops at the last crossing (the far end's final
// state sits just past the level, not at the settled 1 V).
func TestCrossingModeMatchesWaveform(t *testing.T) {
	ckt, out := scaledLadder(nil)
	probes := []int{4, 12, 20, out}
	const level = 0.5
	wave := Options{Dt: 1e-12, TEnd: 6e-9, Probes: probes}
	cross := wave
	cross.CrossLevel = level

	frz, err := Freeze(ckt)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(ckt, probes, ReduceOptions{Freqs: []float64{1e7, 1e8, 1e9, 1e10}, SkipValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		sim  func(Options) (*Result, error)
	}{
		{"simulate", func(o Options) (*Result, error) { return Simulate(ckt, o) }},
		{"frozen", frz.Simulate},
		{"reduced", red.Simulate},
	} {
		full, err := eng.sim(wave)
		if err != nil {
			t.Fatal(err)
		}
		want := crossingsFromWaveforms(t, full, probes, level)
		got, err := eng.sim(cross)
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if len(got.Time) != 0 {
			t.Errorf("%s: crossing mode kept %d time samples", eng.name, len(got.Time))
		}
		if _, err := got.V(out); err == nil {
			t.Errorf("%s: crossing mode kept a waveform", eng.name)
		}
		for k := range probes {
			if math.Float64bits(got.Crossings[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s probe %d: crossing %v, waveform %v", eng.name, probes[k], got.Crossings[k], want[k])
			}
		}
	}
	res, err := Simulate(ckt, cross)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Final[out-1]; v < level || v > 0.6 {
		t.Errorf("far end at %.3f V when the run stopped; want just past %.1f V", v, level)
	}
}

// TestCrossingModeBudgetAndEdges: a budget that ends before a probe
// crosses fails typed; a probe that starts on the level crosses at
// t = 0 (InvLinearCrossing's "touch" branch); no probes means no steps.
func TestCrossingModeBudgetAndEdges(t *testing.T) {
	ckt, out := scaledLadder(nil)
	short := Options{Dt: 1e-12, TEnd: 50e-12, Probes: []int{out}, CrossLevel: 0.5}
	if _, err := Simulate(ckt, short); !errors.Is(err, ErrNoCrossing) {
		t.Errorf("short budget: want ErrNoCrossing, got %v", err)
	}

	// An undelayed step charges the DC operating point: the source node
	// sits at the level from the first sample.
	c := circuit.New()
	in, n := c.Node(), c.Node()
	must(c.AddV("vin", in, circuit.Ground, circuit.Step{Amplitude: 1}))
	must(c.AddR("r", in, n, 1e3))
	must(c.AddC("c", n, circuit.Ground, 1e-12))
	res, err := Simulate(c, Options{Dt: 1e-11, TEnd: 1e-8, Probes: []int{in}, CrossLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossings[0] != 0 {
		t.Errorf("probe on the level at t=0 crossed at %g", res.Crossings[0])
	}

	res, err = Simulate(ckt, Options{Dt: 1e-12, TEnd: 1e-9, CrossLevel: 0.5})
	if err != nil || len(res.Crossings) != 0 {
		t.Errorf("no probes: %v, %v", res, err)
	}
}

// TestCrossingModeMemoryIndependentOfBudget: a crossing-mode run
// allocates the same count and bytes whatever its budget — it keeps no
// per-step record, and it stops at the crossing.
func TestCrossingModeMemoryIndependentOfBudget(t *testing.T) {
	ckt, out := scaledLadder(nil)
	measure := func(budget float64) (allocs, bytes float64) {
		opts := Options{Dt: 1e-12, TEnd: budget, Probes: []int{out}, CrossLevel: 0.5}
		run := func() {
			if _, err := Simulate(ckt, opts); err != nil {
				panic(err)
			}
		}
		return allocsAndBytes(run)
	}
	a1, b1 := measure(2e-9)
	a2, b2 := measure(2e-7)
	// A waveform of the long budget alone would be 3.2 MB; the slack
	// only absorbs runtime bookkeeping.
	if a2 > 1.01*a1+1 || b2 > 1.1*b1 {
		t.Errorf("crossing mode grows with its budget: %.0f allocs/%.0f B at 2 ns vs %.0f/%.0f at 200 ns", a1, b1, a2, b2)
	}
}

// allocsAndBytes returns run's mean heap allocation count and bytes.
func allocsAndBytes(run func()) (allocs, bytes float64) {
	run()
	const n = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
}
