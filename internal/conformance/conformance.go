// Package conformance is rlckit's differential cross-engine test
// harness: seeded, generator-driven corpora of random driven lines AND
// multi-sink trees are pushed through every delay engine, and the
// engines are held to stated bounds against one another:
//
//   - closed form (moment/two-pole) within ClosedTolPct of the shared
//     MNA transient, for sinks inside the validated accuracy domain;
//   - the multi-output Krylov reduced engine within ReducedTolPct of
//     MNA (explicit certified-fallback samples are exempt — they ARE
//     the MNA answer — but are counted);
//   - the tree engine's first moment exactly equal (to rounding) to
//     internal/elmore's RC Elmore delay when inductance is removed;
//   - every what-if session read bit-identical to a cold analysis of
//     the edited tree (reduced reads to cold MNA).
//
// The harness runs a run-until-dry loop: seed batches are processed
// round by round until a full round produces no failures (or a round
// cap is hit), so a clean corpus terminates early while a regression
// keeps collecting distinct failing seeds. Every failure carries a
// one-seed repro command. Both `go test` (short mode in PRs) and the
// nightly conformance CI job drive this package; see conformance_test.go.
package conformance

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"rlckit/internal/elmore"
	"rlckit/internal/netgen"
	"rlckit/internal/pool"
	"rlckit/internal/rlctree"
	"rlckit/internal/session"
	"rlckit/internal/tech"
)

// Options tunes a conformance run. The zero value is usable: defaults
// give one short round.
type Options struct {
	// StartSeed is the first corpus seed; round r batch i uses seed
	// StartSeed + r·BatchSize + i.
	StartSeed int64
	// BatchSize is the number of seeds per round (default 6).
	BatchSize int
	// MaxRounds caps the run-until-dry loop (default 2).
	MaxRounds int
	// ClosedTolPct bounds the closed-form vs MNA per-sink error for
	// in-domain sinks, in percent (default 10).
	ClosedTolPct float64
	// ReducedTolPct bounds the reduced vs MNA per-sink error, in
	// percent (default 1).
	ReducedTolPct float64
	// MaxFailures stops the run once this many failures are collected
	// (default 20) — enough to see the shape of a regression without
	// minutes of noise.
	MaxFailures int
}

func (o Options) withDefaults() Options {
	if o.BatchSize == 0 {
		o.BatchSize = 6
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 2
	}
	if o.ClosedTolPct == 0 {
		o.ClosedTolPct = 10
	}
	if o.ReducedTolPct == 0 {
		o.ReducedTolPct = 1
	}
	if o.MaxFailures == 0 {
		o.MaxFailures = 20
	}
	return o
}

// Failure is one conformance violation with a single-seed repro.
type Failure struct {
	Seed   int64
	Detail string
}

func (f Failure) String() string {
	return fmt.Sprintf("seed %d: %s (repro: go test ./internal/conformance -run TestConformanceCorpus -conformance.seed %d)",
		f.Seed, f.Detail, f.Seed)
}

// Report summarizes a conformance run.
type Report struct {
	// Rounds and Seeds count the corpus actually processed.
	Rounds, Seeds int
	// Cases counts engine comparisons; InDomainSinks and Fallbacks
	// count the closed-form sinks actually held to the bound and the
	// reduced-engine certified fallbacks (exempt but tracked).
	Cases, InDomainSinks, Fallbacks int
	// Failures lists every violation, at most Options.MaxFailures.
	Failures []Failure
}

// Run executes the run-until-dry conformance loop.
func Run(opts Options) Report {
	opts = opts.withDefaults()
	var rep Report
	for round := 0; round < opts.MaxRounds; round++ {
		before := len(rep.Failures)
		for i := 0; i < opts.BatchSize; i++ {
			seed := opts.StartSeed + int64(round*opts.BatchSize+i)
			CheckSeed(seed, opts, &rep)
			rep.Seeds++
			if len(rep.Failures) >= opts.MaxFailures {
				rep.Rounds = round + 1
				return rep
			}
		}
		rep.Rounds = round + 1
		if len(rep.Failures) == before {
			// The round came up dry: the corpus is clean, stop exploring.
			return rep
		}
	}
	return rep
}

// CheckSeed runs every engine comparison for one corpus seed: a random
// tree (kind cycled by seed) and a random driven line discretized as a
// chain tree.
func CheckSeed(seed int64, opts Options, rep *Report) {
	opts = opts.withDefaults()
	cases, _, err := seedCorpus(seed)
	if err != nil {
		rep.fail(seed, opts, err.Error())
	}
	for _, c := range cases {
		checkTree(seed, c.what, c.t, c.d, opts, rep)
	}
}

// corpusCase is one driven tree of a corpus seed.
type corpusCase struct {
	what string
	t    *rlctree.Tree
	d    rlctree.Drive
}

// seedCorpus draws one seed's corpus: a random tree, and a random
// driven line (also returned) as a 24-segment chain tree. On an error
// the cases drawn so far are returned with it.
func seedCorpus(seed int64) ([]corpusCase, netgen.Net, error) {
	node := tech.Default()
	kinds := []netgen.TreeKind{netgen.TreeBalanced, netgen.TreeUnbalanced, netgen.TreeClockH}

	rng := rand.New(pool.NewSource(pool.Seed(seed, 0)))
	tn, err := netgen.RandomTree(rng, node, kinds[int(seed)%len(kinds)], 3+rng.Intn(8))
	if err != nil {
		return nil, netgen.Net{}, fmt.Errorf("tree generation: %v", err)
	}
	cases := []corpusCase{{fmt.Sprintf("tree %s", tn.Name), tn.Tree, tn.Drive}}

	lrng := rand.New(pool.NewSource(pool.Seed(seed, 1)))
	net, err := netgen.RandomNet(lrng, node)
	if err != nil {
		return cases, net, fmt.Errorf("line generation: %v", err)
	}
	lt, _, err := lineChain(net, 24)
	if err != nil {
		return cases, net, fmt.Errorf("line chain %s: %v", net.Name, err)
	}
	cases = append(cases, corpusCase{fmt.Sprintf("line %s", net.Name), lt, rlctree.Drive{Rtr: net.Drive.Rtr, V: net.Drive.V}})
	return cases, net, nil
}

// lineChain discretizes a driven line into an n-segment chain tree
// with the far-end load as its only sink.
func lineChain(net netgen.Net, n int) (*rlctree.Tree, int, error) {
	rt, ltot, ct := net.Line.Totals()
	t, err := rlctree.New(0)
	if err != nil {
		return nil, 0, err
	}
	node := 0
	for i := 0; i < n; i++ {
		node, err = t.Add(node, rt/float64(n), ltot/float64(n), ct/float64(n))
		if err != nil {
			return nil, 0, err
		}
	}
	if err := t.MarkSink(node, net.Drive.CL); err != nil {
		return nil, 0, err
	}
	return t, node, nil
}

// checkTree runs the three cross-engine comparisons on one driven tree.
func checkTree(seed int64, what string, t *rlctree.Tree, d rlctree.Drive, opts Options, rep *Report) {
	exact, err := rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineMNA})
	if err != nil {
		rep.fail(seed, opts, fmt.Sprintf("%s: MNA engine: %v", what, err))
		return
	}

	// 1. Closed form vs MNA, in-domain sinks only.
	closed, err := rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineClosed})
	if err != nil {
		rep.fail(seed, opts, fmt.Sprintf("%s: closed engine: %v", what, err))
		return
	}
	rep.Cases++
	for k := range closed.Sinks {
		s := &closed.Sinks[k]
		if !s.InDomain {
			continue
		}
		rep.InDomainSinks++
		e := exact.Sinks[k].Delay
		if rel := 100 * math.Abs(s.Delay-e) / e; rel > opts.ClosedTolPct {
			rep.fail(seed, opts, fmt.Sprintf("%s sink %d: closed %.4g vs MNA %.4g (%.2f%% > %.0f%%)",
				what, s.Node, s.Delay, e, rel, opts.ClosedTolPct))
		}
	}

	// 2. Reduced vs MNA. A certified fallback already answered with the
	// exact engine and is exempt by construction, but counted.
	red, err := rlctree.Analyze(t, d, rlctree.Config{Engine: rlctree.EngineReduced})
	if err != nil {
		rep.fail(seed, opts, fmt.Sprintf("%s: reduced engine: %v", what, err))
		return
	}
	rep.Cases++
	if red.Fallback {
		rep.Fallbacks++
	} else {
		for k := range red.Sinks {
			r, e := red.Sinks[k].Delay, exact.Sinks[k].Delay
			if rel := 100 * math.Abs(r-e) / e; rel > opts.ReducedTolPct {
				rep.fail(seed, opts, fmt.Sprintf("%s sink %d: reduced %.4g vs MNA %.4g (%.2f%% > %.1f%%)",
					what, red.Sinks[k].Node, r, e, rel, opts.ReducedTolPct))
			}
		}
	}

	// 3. RC-tree Elmore ≡ tree engine with L = 0.
	rep.Cases++
	if err := checkElmore(t, d); err != nil {
		rep.fail(seed, opts, fmt.Sprintf("%s: %v", what, err))
	}

	// 4. What-if edit sequence: a session's incremental re-analysis vs
	// from-scratch analysis of the identically-edited tree. Mutates t,
	// so this comparison must stay last.
	checkEditSequence(seed, what, t, d, opts, rep)
}

// checkEditSequence opens a what-if session over the tree (the session
// copies it), applies a seeded sequence of value-edit batches to both
// the session and the original tree, and holds every step's
// incremental result bit-identical to the from-scratch answer: closed
// to cold closed, and MNA and reduced — which a session answers with
// its frozen exact engine, Fallback set — to cold MNA.
func checkEditSequence(seed int64, what string, t *rlctree.Tree, d rlctree.Drive, opts Options, rep *Report) {
	sess, err := session.Open(t, d, rlctree.Config{})
	if err != nil {
		rep.fail(seed, opts, fmt.Sprintf("%s: open session: %v", what, err))
		return
	}
	defer sess.Close()
	rng := rand.New(pool.NewSource(pool.Seed(seed, 2)))
	cur := d
	const steps = 3
	for step := 1; step <= steps; step++ {
		batch, err := randomEditBatch(rng, t, &cur)
		if err != nil {
			rep.fail(seed, opts, fmt.Sprintf("%s step %d: building edits: %v", what, step, err))
			return
		}
		if err := sess.Apply(batch); err != nil {
			rep.fail(seed, opts, fmt.Sprintf("%s step %d: apply: %v", what, step, err))
			return
		}
		exact, err := rlctree.Analyze(t, cur, rlctree.Config{Engine: rlctree.EngineMNA})
		if err != nil {
			rep.fail(seed, opts, fmt.Sprintf("%s step %d: cold MNA: %v", what, step, err))
			return
		}
		closed, err := rlctree.Analyze(t, cur, rlctree.Config{Engine: rlctree.EngineClosed})
		if err != nil {
			rep.fail(seed, opts, fmt.Sprintf("%s step %d: cold closed: %v", what, step, err))
			return
		}
		for _, engine := range []rlctree.Engine{rlctree.EngineClosed, rlctree.EngineMNA, rlctree.EngineReduced} {
			rep.Cases++
			sres, err := sess.Result(context.Background(), engine)
			if err != nil {
				rep.fail(seed, opts, fmt.Sprintf("%s step %d: session %v: %v", what, step, engine, err))
				return
			}
			cres := exact
			if engine == rlctree.EngineClosed {
				cres = closed
			}
			if sres.Fallback != (engine == rlctree.EngineReduced) {
				rep.fail(seed, opts, fmt.Sprintf("%s step %d: session %v fallback flag %v", what, step, engine, sres.Fallback))
			}
			for k := range sres.Sinks {
				if s, c := sres.Sinks[k].Delay, cres.Sinks[k].Delay; math.Float64bits(s) != math.Float64bits(c) {
					rep.fail(seed, opts, fmt.Sprintf("%s step %d sink %d: session %v %.17g != cold %.17g — incremental path diverged",
						what, step, sres.Sinks[k].Node, engine, s, c))
				}
			}
		}
	}
}

// randomEditBatch draws 1–3 value edits (branch impedance scale, sink
// load scale, driver resistance scale), applies them to the mirror
// tree/drive, and returns the same edits in session form.
func randomEditBatch(rng *rand.Rand, t *rlctree.Tree, cur *rlctree.Drive) ([]session.Edit, error) {
	batch := make([]session.Edit, 0, 3)
	for k, n := 0, 1+rng.Intn(3); k < n; k++ {
		switch pick := rng.Intn(3); {
		case pick == 0 && t.Len() > 1:
			node := 1 + rng.Intn(t.Len()-1)
			r, l, _, err := t.Branch(node)
			if err != nil {
				return nil, err
			}
			f := 0.85 + 0.3*rng.Float64()
			if err := t.SetBranch(node, r*f, l*f); err != nil {
				return nil, err
			}
			batch = append(batch, session.Edit{Op: session.OpBranch, Node: node, R: r * f, L: l * f})
		case pick == 1 && len(t.Sinks()) > 0:
			sinks := t.Sinks()
			node := sinks[rng.Intn(len(sinks))]
			cl, err := t.SinkLoad(node)
			if err != nil {
				return nil, err
			}
			f := 0.7 + 0.6*rng.Float64()
			if err := t.SetLoad(node, cl*f); err != nil {
				return nil, err
			}
			batch = append(batch, session.Edit{Op: session.OpLoad, Node: node, CL: cl * f})
		default:
			f := 0.85 + 0.3*rng.Float64()
			cur.Rtr *= f
			batch = append(batch, session.Edit{Op: session.OpDriver, Rtr: cur.Rtr, V: cur.V})
		}
	}
	return batch, nil
}

// checkElmore rebuilds the tree without inductance in both the rlctree
// and elmore representations and requires their per-node Elmore delays
// to agree to rounding.
func checkElmore(t *rlctree.Tree, d rlctree.Drive) error {
	rootLoad, err := t.SinkLoad(0)
	if err != nil {
		return err
	}
	_, _, rootC, err := t.Branch(0)
	if err != nil {
		return err
	}
	rcTree, err := rlctree.New(rootC - rootLoad)
	if err != nil {
		return err
	}
	et, err := elmore.NewTree(d.Rtr, rootC-rootLoad)
	if err != nil {
		return err
	}
	for i := 1; i < t.Len(); i++ {
		p, err := t.Parent(i)
		if err != nil {
			return err
		}
		r, _, c, err := t.Branch(i)
		if err != nil {
			return err
		}
		load, err := t.SinkLoad(i)
		if err != nil {
			return err
		}
		if r == 0 {
			// A pure-inductance branch has no RC counterpart; the L = 0
			// equivalence is only defined for resistive trees.
			return nil
		}
		if _, err := rcTree.Add(p, r, 0, c-load); err != nil {
			return err
		}
		if _, err := et.Add(p, r, c-load); err != nil {
			return err
		}
	}
	for _, sink := range t.Sinks() {
		load, err := t.SinkLoad(sink)
		if err != nil {
			return err
		}
		if err := rcTree.MarkSink(sink, load); err != nil {
			return err
		}
		if err := et.AddCap(sink, load); err != nil {
			return err
		}
	}
	got, err := rcTree.ElmoreDelays(rlctree.Drive{Rtr: d.Rtr})
	if err != nil {
		return err
	}
	want := et.Delays()
	for i := range got {
		if want[i] == 0 {
			continue
		}
		if rel := math.Abs(got[i]-want[i]) / want[i]; rel > 1e-9 {
			return fmt.Errorf("Elmore mismatch at node %d: rlctree %g vs elmore %g (rel %g)", i, got[i], want[i], rel)
		}
	}
	return nil
}

func (r *Report) fail(seed int64, opts Options, detail string) {
	if len(r.Failures) < opts.MaxFailures {
		r.Failures = append(r.Failures, Failure{Seed: seed, Detail: detail})
	}
}
