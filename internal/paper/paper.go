// Package paper regenerates every table and figure of the paper's
// evaluation from rlckit's own engines. It is the single source of truth
// used by cmd/paperfigs, the root benchmark suite, and the integration
// tests; cmd/paperfigs prints its output beside the paper's printed
// values, and this package's tests pin the measured behaviour.
//
// Experiment index (the ids cmd/paperfigs and bench_test.go use):
//
//	E1  Table 1    — Eq. 9 vs dynamic simulation over the 36-cell grid
//	E2  Figure 2   — scaled delay t′pd vs ζ for (RT, CT) ∈ {0, 1, 5}
//	E3  Figure 4a  — repeater size error factor h′(T)
//	E4  Figure 4b  — repeater count error factor k′(T)
//	E5  Eq. 16/17  — %delay increase of RC-designed repeaters
//	E6  Eq. 18     — %area increase of RC-designed repeaters
//	E7  Section II — delay vs length: quadratic → linear transition
//	E8  Section III— closed-form repeater optimality gap
//	E9  Section IV — technology scaling trend of the RC-model error
package paper

import (
	"math"

	"rlckit/internal/refeng"
	"rlckit/internal/tline"
)

// simulate is the reference "dynamic circuit simulation" used to grade
// the closed forms: the exact transmission-line transfer function
// inverted numerically. refeng's tests certify it against the MNA
// transient engine and the pole/residue engine to <1%.
func simulate(ln tline.Line, d tline.Drive) (float64, error) {
	return refeng.DelayExactTF(ln, d, 0)
}

// pct returns the signed percentage difference of a vs ref.
func pct(a, ref float64) float64 { return 100 * (a - ref) / ref }

// geomSpace returns n geometrically spaced points in [lo, hi].
func geomSpace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}

// linSpace returns n linearly spaced points in [lo, hi].
func linSpace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
