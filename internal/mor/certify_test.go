package mor

import (
	"math"
	"testing"

	"rlckit/internal/numeric"
)

// TestCertify: grading the build pencil against the build values stays
// inside the build tolerance, grading it against values it was not
// built for does not, and malformed calls are refused.
func TestCertify(t *testing.T) {
	const n, r, c, valTol = 40, 150.0, 1e-13, 1e-3
	sys := rcLadder(n, r, c)
	omegas := ladderOmegas(r, c, n)
	mdl, err := Build(sys, Options{Omegas: omegas, ValTol: valTol})
	if err != nil {
		t.Fatal(err)
	}
	errPct, err := mdl.Certify(sys.G.V, sys.C.V, sys.KL, sys.KU, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if errPct > 100*valTol {
		t.Errorf("build-point certification error %.3g%% exceeds %.3g%%", errPct, 100*valTol)
	}

	// The nominal pencil graded against ×3 capacitances is far off.
	cv := make([]float64, len(sys.C.V))
	for k, v := range sys.C.V {
		cv[k] = 3 * v
	}
	if errPct, err := mdl.Certify(sys.G.V, cv, sys.KL, sys.KU, omegas); err != nil || errPct < 1 {
		t.Errorf("stale pencil vs ×3 capacitances graded %.3g%%, %v; want > 1%%", errPct, err)
	}

	if _, err := mdl.Certify(sys.G.V[:1], sys.C.V, sys.KL, sys.KU, omegas); err == nil {
		t.Error("Certify accepted a short G value array")
	}
	if _, err := mdl.Certify(sys.G.V, sys.C.V, sys.KL, sys.KU, nil); err == nil {
		t.Error("Certify accepted no frequencies")
	}
}

// TestProjectEntrySpanSumsToProjectValues: the projection is linear in
// the entries, so the spans of a partition of the structure entries
// must add up to ProjectValues of all of them.
func TestProjectEntrySpanSumsToProjectValues(t *testing.T) {
	const n, r, c = 40, 150.0, 1e-13
	sys := rcLadder(n, r, c)
	mdl, err := Build(sys, Options{Omegas: ladderOmegas(r, c, n), ValTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	q := mdl.Q()
	for _, tc := range []struct {
		name string
		vals []float64
		onC  bool
	}{{"G", sys.G.V, false}, {"C", sys.C.V, true}} {
		whole := numeric.NewMatrix(q, q)
		if err := mdl.ProjectValues(tc.vals, tc.onC, whole); err != nil {
			t.Fatal(err)
		}
		want := whole.Data
		// Odd and even entries as two spans, accumulated in one block.
		var odd, even []int
		for k := range tc.vals {
			if k%2 == 1 {
				odd = append(odd, k)
			} else {
				even = append(even, k)
			}
		}
		got := make([]float64, q*q)
		for _, span := range [][]int{odd, even} {
			if err := mdl.ProjectEntrySpan(span, tc.vals, tc.onC, got); err != nil {
				t.Fatal(err)
			}
		}
		diff, scale := 0.0, 0.0
		for i := range got {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
			scale = math.Max(scale, math.Abs(want[i]))
		}
		if diff > 1e-12*scale {
			t.Errorf("%s: entry spans sum to %.3g off ProjectValues (scale %.3g)", tc.name, diff, scale)
		}
	}

	dst := make([]float64, q*q)
	if err := mdl.ProjectEntrySpan([]int{0}, sys.G.V, false, dst[:1]); err == nil {
		t.Error("ProjectEntrySpan accepted a short destination")
	}
	if err := mdl.ProjectEntrySpan([]int{len(sys.G.V)}, sys.G.V, false, dst); err == nil {
		t.Error("ProjectEntrySpan accepted an out-of-range entry")
	}
}
