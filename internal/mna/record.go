package mna

import (
	"fmt"

	"rlckit/internal/numeric"
)

// recorder is the probe sink shared by the full-order and reduced step
// loops: the loop writes the current probe values into y and calls
// record once per sample, starting with t = 0.
//
// In waveform mode it appends every sample to slices preallocated to
// the run's length. In crossing mode (Options.CrossLevel) it reads each
// probe's first upward crossing on the fly through
// numeric.CrossingInInterval, the test numeric.InvLinearCrossing
// applies to each interval — so every crossing is bit-identical to the
// one read off the recorded waveform — and keeps nothing per step.
type recorder struct {
	y []float64 // the current sample, one value per probe

	// Waveform mode.
	time []float64
	buf  [][]float64

	// Crossing mode.
	cross   bool
	level   float64
	started bool
	tPrev   float64
	prev    []float64 // each probe's previous sample
	at      []float64 // crossing times
	done    []bool
	left    int // probes that have not crossed yet
}

func newRecorder(opts Options, steps int) *recorder {
	np := len(opts.Probes)
	r := &recorder{y: make([]float64, np)}
	if opts.CrossLevel != 0 {
		r.cross, r.level, r.left = true, opts.CrossLevel, np
		r.prev = make([]float64, np)
		r.at = make([]float64, np)
		r.done = make([]bool, np)
		return r
	}
	r.time = make([]float64, 0, steps+1)
	r.buf = make([][]float64, np)
	for k := range r.buf {
		r.buf[k] = make([]float64, 0, steps+1)
	}
	return r
}

// record consumes the sample in r.y at time t.
func (r *recorder) record(t float64) {
	if !r.cross {
		r.time = append(r.time, t)
		for k, v := range r.y {
			r.buf[k] = append(r.buf[k], v)
		}
		return
	}
	if r.started {
		for k, y := range r.y {
			if r.done[k] {
				continue
			}
			if at, ok := numeric.CrossingInInterval(r.tPrev, t, r.prev[k], y, r.level); ok {
				r.at[k], r.done[k] = at, true
				r.left--
			}
			r.prev[k] = y
		}
	} else {
		copy(r.prev, r.y)
		r.started = true
	}
	r.tPrev = t
}

// crossed reports that a crossing-mode run can stop: every probe has
// crossed.
func (r *recorder) crossed() bool { return r.cross && r.left == 0 }

// result packages the record for probes; a crossing-mode run that
// exhausted its steps-step budget with a probe still below the level
// fails with ErrNoCrossing.
func (r *recorder) result(probes []int, steps int) (*Result, error) {
	if r.cross {
		if r.left > 0 {
			return nil, fmt.Errorf("%w (%d of %d probes still below %g after %d steps)",
				ErrNoCrossing, r.left, len(probes), r.level, steps)
		}
		return &Result{Crossings: r.at}, nil
	}
	res := &Result{Time: r.time, probe: make(map[int][]float64, len(probes))}
	for k, p := range probes {
		res.probe[p] = r.buf[k]
	}
	return res, nil
}
