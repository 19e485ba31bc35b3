package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rlckit/internal/mna"
	"rlckit/internal/pool"
	"rlckit/internal/refeng"
	"rlckit/internal/rlctree"
	"rlckit/internal/session"
	"rlckit/internal/tline"
)

// This file holds every transient delay engine to the retry loop the
// crossing-mode runs replaced, bit for bit, over the conformance
// corpus. The reference is a verbatim copy of that loop and of the
// transient plans feeding it: simulate a full waveform to the planned
// horizon, read the first upward 50% crossing off it, and re-simulate
// from t = 0 with a 2.5× longer horizon, up to four attempts.

// retryCrossings is the reference loop. sim records probes' waveforms
// to tEnd.
func retryCrossings(sim func(tEnd float64) (*mna.Result, error), probes []int, level, effDelay, tEnd float64) ([]float64, error) {
	for attempt := 0; attempt < 4; attempt++ {
		res, err := sim(tEnd)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(probes))
		crossed := true
		for k, p := range probes {
			w, err := res.Waveform(p)
			if err != nil {
				return nil, err
			}
			c, err := w.CrossUp(level)
			if err != nil {
				crossed = false
				break
			}
			out[k] = c - effDelay
		}
		if crossed {
			return out, nil
		}
		tEnd *= 2.5
	}
	return nil, fmt.Errorf("never crossed %g within the extended horizon", level)
}

// treePlan is the tree engines' transient plan: the Elmore envelope and
// the closed-form delays of a cold closed analysis give the horizon and
// the fastest sink scale, which fix the timestep and the step delay.
type treePlan struct {
	dt, delay, tEnd float64
	freqs           []float64 // the reduced model's probe band
}

func planTree(t *rlctree.Tree, d rlctree.Drive) (treePlan, error) {
	closed, err := rlctree.Analyze(t, d, rlctree.Config{})
	if err != nil {
		return treePlan{}, err
	}
	maxB1, dMax, dMin := 0.0, 0.0, math.Inf(1)
	for _, s := range closed.Sinks {
		maxB1 = math.Max(maxB1, -s.M1)
		if v := s.DelayClosed; v > 0 && !math.IsInf(v, 0) {
			dMin = math.Min(dMin, v)
			dMax = math.Max(dMax, v)
		}
	}
	var horizon, tFast float64
	if dMax <= 0 || math.IsInf(dMin, 1) {
		horizon = 4 * (d.Rtr + 1) * t.TotalCap()
		tFast = horizon
	} else {
		horizon, tFast = 4*maxB1+8*dMax, dMin/2
	}
	p := treePlan{dt: math.Min(horizon/3000, tFast/30)}
	p.delay = 10 * p.dt
	p.tEnd = horizon + p.delay
	fLo, fHi := 0.03/horizon, 6/tFast
	ratio := math.Pow(fHi/fLo, 1.0/6)
	for f, i := fLo, 0; i < 7; i++ {
		p.freqs = append(p.freqs, f)
		f *= ratio
	}
	return p, nil
}

// retryTree runs the reference loop on a tree's transient plan through
// sim.
func retryTree(d rlctree.Drive, p treePlan, sim func(mna.Options) (*mna.Result, error), probes []int) ([]float64, error) {
	return retryCrossings(func(tEnd float64) (*mna.Result, error) {
		return sim(mna.Options{Dt: p.dt, TEnd: tEnd, Probes: probes})
	}, probes, d.Amplitude()/2, p.delay-p.dt/2, p.tEnd)
}

// sinkProbes maps the tree's sinks to circuit nodes.
func sinkProbes(t *rlctree.Tree, nodeOf []int) []int {
	var probes []int
	for _, s := range t.Sinks() {
		probes = append(probes, nodeOf[s])
	}
	return probes
}

// retryDelayMNA is refeng.DelayMNA's reference loop at its defaults
// (120 segments of MNAConfig's zero Style, Gamma; 4000 steps per
// scale; trapezoidal).
func retryDelayMNA(ln tline.Line, d tline.Drive) (float64, error) {
	rt, lt, ct := ln.Totals()
	tRC := (rt + d.Rtr) * (ct + d.CL)
	tLC := math.Sqrt(lt * (ct + d.CL))
	tEst := 4*tRC + 8*tLC
	dt := math.Min(tEst/4000, tLC/(6*120))
	delay := 10 * dt
	lad, err := tline.BuildLadder(ln, d, 120, tline.Gamma, delay)
	if err != nil {
		return 0, err
	}
	out, err := retryCrossings(func(tEnd float64) (*mna.Result, error) {
		return mna.Simulate(lad.Ckt, mna.Options{Dt: dt, TEnd: tEnd, Probes: []int{lad.Out}})
	}, []int{lad.Out}, d.Amplitude()/2, delay-dt/2, tEst+delay)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

func sameDelays(t *testing.T, tag string, got []rlctree.SinkDelay, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sinks vs %d", tag, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k].Delay) != math.Float64bits(want[k]) {
			t.Errorf("%s sink %d: %.17g, retry loop %.17g", tag, got[k].Node, got[k].Delay, want[k])
		}
	}
}

// TestCrossingModeMatchesRetryLoop: over the short corpus, cold MNA,
// cold reduced (certified or fallen back), a session's frozen MNA and
// reduced reads after an edit batch, and refeng.DelayMNA on the seed's
// line all return the retry loop's bits.
func TestCrossingModeMatchesRetryLoop(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 4
	}
	reducedChecked := 0
	for seed := int64(0); seed < seeds; seed++ {
		cases, net, err := seedCorpus(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range cases {
			tag := fmt.Sprintf("seed %d %s", seed, c.what)
			p, err := planTree(c.t, c.d)
			if err != nil {
				t.Fatal(err)
			}
			ckt, nodeOf, err := c.t.ToCircuit(c.d, p.delay)
			if err != nil {
				t.Fatal(err)
			}
			probes := sinkProbes(c.t, nodeOf)
			wantMNA, err := retryTree(c.d, p, func(o mna.Options) (*mna.Result, error) { return mna.Simulate(ckt, o) }, probes)
			if err != nil {
				t.Fatalf("%s: retry MNA: %v", tag, err)
			}
			got, err := rlctree.Analyze(c.t, c.d, rlctree.Config{Engine: rlctree.EngineMNA})
			if err != nil {
				t.Fatal(err)
			}
			sameDelays(t, tag+" mna", got.Sinks, wantMNA)

			got, err = rlctree.Analyze(c.t, c.d, rlctree.Config{Engine: rlctree.EngineReduced})
			if err != nil {
				t.Fatal(err)
			}
			// The reduced engine answers from its certified model, or
			// exactly (Fallback) when it cannot certify or cross.
			wantRed, certified := wantMNA, false
			if red, rerr := mna.Reduce(ckt, probes, mna.ReduceOptions{Freqs: p.freqs, MaxOrder: 64, ValTol: 1e-3}); rerr == nil {
				if w, werr := retryTree(c.d, p, red.Simulate, probes); werr == nil {
					wantRed, certified = w, true
					reducedChecked++
				}
			}
			if got.Reduced != certified || got.Fallback == certified {
				t.Errorf("%s: reduced engine reduced=%v fallback=%v, reference certified=%v", tag, got.Reduced, got.Fallback, certified)
			}
			sameDelays(t, tag+" reduced", got.Sinks, wantRed)

			checkFrozenAgainstRetry(t, tag, seed, c)
		}
		d, err := refeng.DelayMNA(net.Line, net.Drive, refeng.MNAConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := retryDelayMNA(net.Line, net.Drive)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(want) {
			t.Errorf("seed %d line %s: DelayMNA %.17g, retry loop %.17g", seed, net.Name, d, want)
		}
	}
	if reducedChecked == 0 {
		t.Error("no corpus tree certified a reduced model; the reduced comparison never ran")
	}
}

// checkFrozenAgainstRetry edits a session over the case's tree and
// holds its MNA and reduced reads to the reference loop run on the
// frozen ordering of the opened circuit, re-stamped with the edit.
func checkFrozenAgainstRetry(t *testing.T, tag string, seed int64, c corpusCase) {
	t.Helper()
	mirror, err := c.t.Scale(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := session.Open(mirror, c.d, rlctree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cur := c.d
	p0, err := planTree(mirror, cur)
	if err != nil {
		t.Fatal(err)
	}
	open, _, err := mirror.ToCircuit(cur, p0.delay)
	if err != nil {
		t.Fatal(err)
	}
	frz, err := mna.Freeze(open)
	if err != nil {
		t.Fatal(err)
	}
	// The first read freezes the session's ordering on the opened tree.
	if _, err := sess.Result(context.Background(), rlctree.EngineMNA); err != nil {
		t.Fatal(err)
	}
	batch, err := randomEditBatch(rand.New(pool.NewSource(pool.Seed(seed, 3))), mirror, &cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Apply(batch); err != nil {
		t.Fatal(err)
	}
	p, err := planTree(mirror, cur)
	if err != nil {
		t.Fatal(err)
	}
	edited, nodeOf, err := mirror.ToCircuit(cur, p.delay)
	if err != nil {
		t.Fatal(err)
	}
	if err := frz.Restamp(edited); err != nil {
		t.Fatal(err)
	}
	want, err := retryTree(cur, p, frz.Simulate, sinkProbes(mirror, nodeOf))
	if err != nil {
		t.Fatalf("%s: retry frozen: %v", tag, err)
	}
	for _, eng := range []rlctree.Engine{rlctree.EngineMNA, rlctree.EngineReduced} {
		got, err := sess.Result(context.Background(), eng)
		if err != nil {
			t.Fatal(err)
		}
		sameDelays(t, fmt.Sprintf("%s session %v", tag, eng), got.Sinks, want)
	}
}
