package mna

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/circuit"
)

// scaledLadder builds a driven 12-segment RLC ladder with every
// element's value multiplied by f[e], e being the element's index
// (element 0 is the source); a nil f builds the nominal ladder. It
// returns the circuit and its far-end node.
func scaledLadder(f []float64) (*circuit.Circuit, int) {
	ckt := circuit.New()
	e := 0
	val := func(v float64) float64 {
		e++
		if f == nil {
			return v
		}
		return v * f[e]
	}
	in := ckt.Node()
	must(ckt.AddV("vin", in, circuit.Ground, circuit.Step{Amplitude: 1, Delay: 1e-12}))
	prev := ckt.Node()
	must(ckt.AddR("rtr", in, prev, val(300)))
	for i := 0; i < 12; i++ {
		mid, n := ckt.Node(), ckt.Node()
		must(ckt.AddR(fmt.Sprintf("r%d", i), prev, mid, val(40)))
		must(ckt.AddL(fmt.Sprintf("l%d", i), mid, n, val(5e-10)))
		must(ckt.AddC(fmt.Sprintf("c%d", i), n, circuit.Ground, val(8e-14)))
		prev = n
	}
	return ckt, prev
}

// maxAbsDiff returns max|a−b| and max|b| over two equal-length slices.
func maxAbsDiff(a, b []float64) (diff, scale float64) {
	for i := range a {
		diff = math.Max(diff, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	return diff, scale
}

// TestElementScalingMatchesReprojection: re-targeting every element by
// its own factor through ScaleElement/CommitPencil must give the pencil
// a full Reproject of the scaled circuit gives through the same basis
// (the projection is linear in the element values), and CertifyCurrent
// must grade the build point inside the build tolerance.
func TestElementScalingMatchesReprojection(t *testing.T) {
	nominal, out := scaledLadder(nil)
	freqs, err := LogSpace(1e7, 5e9, 12)
	if err != nil {
		t.Fatal(err)
	}
	const valTol = 5e-3
	red, err := Reduce(nominal, []int{out}, ReduceOptions{Freqs: freqs, ValTol: valTol})
	if err != nil {
		t.Fatal(err)
	}

	// Call order: nothing works before StartElementScaling, and it runs
	// once.
	if err := red.ScaleElement(1, 2, 1); err == nil {
		t.Error("ScaleElement before StartElementScaling accepted")
	}
	if err := red.CommitPencil(); err == nil {
		t.Error("CommitPencil before StartElementScaling accepted")
	}
	if _, err := red.CertifyCurrent(freqs); err == nil {
		t.Error("CertifyCurrent before StartElementScaling accepted")
	}
	if err := red.StartElementScaling(); err != nil {
		t.Fatal(err)
	}
	if err := red.StartElementScaling(); err == nil {
		t.Error("second StartElementScaling accepted")
	}

	errPct, err := red.CertifyCurrent(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if errPct > 100*valTol {
		t.Errorf("build-point certification error %.3g%% exceeds the %.3g%% tolerance", errPct, 100*valTol)
	}

	els := nominal.Elements()
	f := make([]float64, len(els))
	f[0] = 1 // the source is not an element value
	rng := rand.New(rand.NewSource(5))
	for e := 1; e < len(els); e++ {
		f[e] = 0.7 + 0.6*rng.Float64()
		sG, sC := 1.0, f[e]
		if els[e].Kind == circuit.KindResistor {
			// Conductance stamps scale inversely; an inductor's ±1
			// topology stamps in G never scale.
			sG, sC = 1/f[e], 1
		}
		if err := red.ScaleElement(e, sG, sC); err != nil {
			t.Fatalf("element %d: %v", e, err)
		}
	}
	for _, bad := range []struct {
		elem   int
		sG, sC float64
	}{
		{-1, 1, 1},
		{len(els) + 5, 1, 1},
		{1, math.NaN(), 1},
		{1, 1, math.Inf(1)},
	} {
		if err := red.ScaleElement(bad.elem, bad.sG, bad.sC); err == nil {
			t.Errorf("ScaleElement(%d, %g, %g) accepted", bad.elem, bad.sG, bad.sC)
		}
	}
	if err := red.CommitPencil(); err != nil {
		t.Fatal(err)
	}
	if _, err := red.CertifyCurrent(freqs); err != nil {
		t.Fatalf("CertifyCurrent at the scaled values: %v", err)
	}
	gr := append([]float64(nil), red.model.Gr.Data...)
	cr := append([]float64(nil), red.model.Cr.Data...)

	scaled, _ := scaledLadder(f)
	if err := red.Reproject(scaled); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name      string
		got, want []float64
	}{{"G", gr, red.model.Gr.Data}, {"C", cr, red.model.Cr.Data}} {
		if diff, scale := maxAbsDiff(m.got, m.want); diff > 1e-12*scale {
			t.Errorf("element-scaled reduced %s differs from reprojection by %.3g (scale %.3g)", m.name, diff, scale)
		}
	}
}

// TestFrozenMatchesSimulate: a frozen ordering re-stamped with edited
// values simulates bit-identically to a cold Simulate of the edited
// circuit, and a topology change is refused.
func TestFrozenMatchesSimulate(t *testing.T) {
	nominal, out := scaledLadder(nil)
	frz, err := Freeze(nominal)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, len(nominal.Elements()))
	for e := range f {
		f[e] = 1 + 0.01*float64(e%7)
	}
	edited, _ := scaledLadder(f)
	if err := frz.Restamp(edited); err != nil {
		t.Fatal(err)
	}
	opts := Options{Dt: 1e-12, TEnd: 2e-9, Probes: []int{out}}
	got, err := frz.Simulate(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := got.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	ww, err := want.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(gw.Y) != len(ww.Y) {
		t.Fatalf("sample counts %d vs %d", len(gw.Y), len(ww.Y))
	}
	for i := range gw.Y {
		if math.Float64bits(gw.Y[i]) != math.Float64bits(ww.Y[i]) {
			t.Fatalf("sample %d: frozen %v vs cold %v", i, gw.Y[i], ww.Y[i])
		}
	}
	if frz.N() <= 0 {
		t.Errorf("N() = %d", frz.N())
	}

	other := circuit.New()
	a := other.Node()
	must(other.AddV("vin", a, circuit.Ground, circuit.Step{Amplitude: 1}))
	must(other.AddR("r", a, circuit.Ground, 1))
	if err := frz.Restamp(other); err == nil {
		t.Error("Restamp accepted a different topology")
	}
}
