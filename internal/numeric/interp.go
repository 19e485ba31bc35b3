package numeric

import (
	"fmt"
	"sort"
)

// LinearInterp evaluates the piecewise-linear interpolant through
// (xs, ys) at x, clamping outside the data range. xs must be strictly
// increasing.
func LinearInterp(xs, ys []float64, x float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("numeric: LinearInterp bad data")
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[len(xs)-1] {
		return ys[len(ys)-1]
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// InvLinearCrossing finds the first x where the piecewise-linear signal
// (xs, ys) crosses level going upward (ys[i] < level <= ys[i+1]) — the
// standard 50%-delay measurement on a rising output. It returns an error
// if no upward crossing exists.
func InvLinearCrossing(xs, ys []float64, level float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("numeric: crossing needs >=2 samples")
	}
	for i := 1; i < len(xs); i++ {
		if x, ok := CrossingInInterval(xs[i-1], xs[i], ys[i-1], ys[i], level); ok {
			return x, nil
		}
	}
	return 0, fmt.Errorf("numeric: signal never crosses %g (range %g..%g)", level, ys[0], ys[len(ys)-1])
}

// CrossingInInterval is InvLinearCrossing's test on one sample interval
// (x0, y0)–(x1, y1): it reports whether the interval holds the crossing
// InvLinearCrossing would return, and where. Streaming readers call it
// on consecutive intervals to find the same bits without a recorded
// signal.
func CrossingInInterval(x0, x1, y0, y1, level float64) (float64, bool) {
	if y0 < level && y1 >= level {
		t := (level - y0) / (y1 - y0)
		return x0 + t*(x1-x0), true
	}
	if y0 == level {
		return x0, true
	}
	return 0, false
}

// Spline is a natural cubic spline through strictly increasing knots.
type Spline struct {
	xs, ys []float64
	m      []float64 // second derivatives at knots
}

// NewSpline builds a natural cubic spline; xs must be strictly increasing
// with len(xs) == len(ys) >= 2.
func NewSpline(xs, ys []float64) (*Spline, error) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return nil, fmt.Errorf("numeric: spline needs matched data of length >=2")
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("numeric: spline knots must be strictly increasing (x[%d]=%g, x[%d]=%g)", i-1, xs[i-1], i, xs[i])
		}
	}
	s := &Spline{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		m:  make([]float64, n),
	}
	if n == 2 {
		return s, nil // linear
	}
	// Thomas algorithm for the tridiagonal second-derivative system.
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		h0 := xs[i] - xs[i-1]
		h1 := xs[i+1] - xs[i]
		a[i] = h0
		b[i] = 2 * (h0 + h1)
		c[i] = h1
		d[i] = 6 * ((ys[i+1]-ys[i])/h1 - (ys[i]-ys[i-1])/h0)
	}
	for i := 1; i < n; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		d[i] -= w * d[i-1]
	}
	s.m[n-1] = d[n-1] / b[n-1]
	for i := n - 2; i >= 0; i-- {
		s.m[i] = (d[i] - c[i]*s.m[i+1]) / b[i]
	}
	return s, nil
}

// Eval evaluates the spline at x, extrapolating linearly outside the knots.
func (s *Spline) Eval(x float64) float64 {
	n := len(s.xs)
	if n == 2 {
		return LinearInterp(s.xs, s.ys, x)
	}
	if x <= s.xs[0] {
		d := s.derivAt(0)
		return s.ys[0] + d*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		d := s.derivAt(n - 1)
		return s.ys[n-1] + d*(x-s.xs[n-1])
	}
	i := sort.SearchFloat64s(s.xs, x)
	if i == 0 {
		i = 1
	}
	x0, x1 := s.xs[i-1], s.xs[i]
	h := x1 - x0
	A := (x1 - x) / h
	B := (x - x0) / h
	return A*s.ys[i-1] + B*s.ys[i] +
		((A*A*A-A)*s.m[i-1]+(B*B*B-B)*s.m[i])*h*h/6
}

func (s *Spline) derivAt(i int) float64 {
	n := len(s.xs)
	if i == 0 {
		h := s.xs[1] - s.xs[0]
		return (s.ys[1]-s.ys[0])/h - h/6*(2*s.m[0]+s.m[1])
	}
	h := s.xs[n-1] - s.xs[n-2]
	return (s.ys[n-1]-s.ys[n-2])/h + h/6*(s.m[n-2]+2*s.m[n-1])
}
