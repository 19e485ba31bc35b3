package mna

import (
	"fmt"
	"math"
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

// scaledTree is addTree's tree with every element's value multiplied by
// f[e] as in scaledLadder; it returns the circuit and its first sink.
func scaledTree(f []float64) (*circuit.Circuit, int) {
	ckt := circuit.New()
	sinks := addTree(ckt, "", 1e-12)
	for e := range f {
		ckt.Elements()[e].Value *= f[e]
	}
	return ckt, sinks[0]
}

// TestFrozenMatchesSimulate: a frozen ordering — RCM for a ladder, the
// tree LU's forest order for a tree — re-stamped with edited values
// simulates bit-identically to a cold Simulate of the edited circuit,
// and a topology change is refused.
func TestFrozenMatchesSimulate(t *testing.T) {
	var frz *Frozen
	for _, c := range []struct {
		build func(f []float64) (*circuit.Circuit, int)
		tree  bool
	}{{scaledLadder, false}, {scaledTree, true}} {
		nominal, out := c.build(nil)
		var err error
		if frz, err = Freeze(nominal); err != nil {
			t.Fatal(err)
		}
		if (frz.sys.forest != nil) != c.tree {
			t.Fatalf("frozen forest order %v, want %v", frz.sys.forest != nil, c.tree)
		}
		f := make([]float64, len(nominal.Elements()))
		for e := range f {
			f[e] = 1 + 0.01*float64(e%7)
		}
		edited, _ := c.build(f)
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
