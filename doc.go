// Package rlckit is a Go reproduction of "Effects of Inductance on the
// Propagation Delay and Repeater Insertion in VLSI Circuits" (Ismail &
// Friedman, DAC 1999).
//
// The library lives under internal/:
//
//   - serve     — the HTTP serving layer: /v1/{delay,screen,repeaters,
//     sweep} JSON endpoints with a canonical-key response cache and
//     compute bounded to a worker count (wrapped by cmd/rlckitd)
//   - cache     — sharded LRU under the serving layer, keyed by the
//     canonical values of (Line, Drive, config)
//   - core      — the paper's closed-form RLC delay model (ζ, ωn, Eq. 9)
//   - repeater  — RLC-aware repeater insertion (Eqs. 11, 13-18)
//   - tline     — distributed-line models (ladders, exact transfer fn)
//   - mna       — transient circuit simulator (the AS/X stand-in)
//   - mor       — Krylov model-order reduction: certified q×q reduced
//     models evaluated per frequency point, timestep, or Monte Carlo
//     sample (mna.ACReduced, refeng.DelayReduced, the sweep's
//     reduced estimator), with exact fallback on failed certification
//   - rlctree   — multi-sink RLC trees (clock trees, routed fanout):
//     per-sink delay and skew from a moment/two-pole closed form, one
//     shared MNA transient, or a multi-output reduced model
//   - session   — stateful what-if analysis over rlctree's
//     incremental engine: open a driven tree once, stream value
//     edits, re-read per-sink delays bit-identically to a cold
//     analysis (OpenSession, cmd/whatif, POST /v1/session)
//   - conformance — differential cross-engine harness: seeded random
//     lines and trees through every engine, held to stated bounds in
//     a run-until-dry loop (short in PRs, long nightly)
//   - sweep     — chip-scale batch engine: nets × corners × Monte Carlo
//     samples on a worker pool, aggregated into population statistics
//     (lines via Run, trees via RunTrees)
//   - pool      — the shared bounded worker pool and deterministic
//     per-index seed derivation under every batch layer
//   - ratfun    — pole/residue analytic step responses
//   - laplace   — numerical inverse Laplace (Euler, Talbot)
//   - refeng    — the three cross-validated reference delay engines
//   - elmore    — RC-tree Elmore/Sakurai baselines
//   - tech      — technology nodes and wire-geometry parasitics
//   - paper     — regeneration of every table/figure (E1-E9)
//   - circuit, waveform, numeric, units, netgen, netlist, report,
//     golden — substrates
//
// # Chip-scale sweeps
//
// The paper's headline claim is statistical — across a population of
// nets, ignoring inductance mis-predicts delay and mis-sizes repeaters
// by double-digit percentages. SweepDelays reproduces that experiment
// at production scale:
//
//	node, _ := rlckit.Technology("250nm")
//	nets, _ := rlckit.RandomNets(1, node, 10000)
//	res, _ := rlckit.SweepDelays(nets, rlckit.SweepConfig{
//		RiseTime: 50e-12,
//		Corners:  rlckit.DefaultCorners(),
//		MC:       rlckit.SweepMonteCarlo{Samples: 8, Seed: 7, RSigma: 0.1},
//	})
//	res.RenderSummary(os.Stdout) // screening fractions, error percentiles
//
// Sweeps run on a bounded worker pool and are deterministic: the same
// seed yields byte-identical samples and aggregates at every worker
// count and GOMAXPROCS setting, because each (net, corner, draw) triple
// derives its RNG from its own seed rather than from a shared stream.
//
// # Model-order reduction
//
// The reduce-once/evaluate-everywhere fast path: internal/mor
// compresses a net's MNA system into a certified q×q model by
// PRIMA-style block Arnoldi over the passive form, and the consumers
// evaluate that model instead of re-factoring the full system — a
// 2000-unknown AC sweep at 200 points runs ~36× faster than the exact
// band engine, and Monte Carlo sweeps recombine per-class reduced
// pencils per sample in O(q²). Certification (exact validation at
// every probe frequency, for the nominal and every anchor instance)
// gates the fast path; on failure every consumer falls back to the
// exact engine. See DelayReduced, SweepEstimatorReduced, and the
// serving layer's method "reduced".
//
// # Serving
//
// cmd/rlckitd exposes the same analyses over HTTP as JSON endpoints —
// POST /v1/delay, /v1/screen, /v1/repeaters, /v1/sweep — with a
// sharded LRU response cache keyed by canonical request values, at
// most a worker count of concurrent single-net computes (each on its
// own request goroutine), 429 backpressure, expvar metrics and graceful
// shutdown. Responses are pure functions of the request body, so they
// are byte-identical across worker counts and cache states.
//
// # RLC trees and skew
//
// Multi-sink nets — clock trees and routed fanout — are a first-class
// workload: AnalyzeTree computes every sink's 50% delay and the
// sink-to-sink skew from one shared solve (closed-form moments, a
// single multi-probe MNA transient, or a multi-output reduced model
// with exact fallback), RandomTrees draws seeded
// balanced/unbalanced/H-tree populations, SweepTreeDelays runs
// trees × corners × Monte Carlo, and the serving layer exposes it all
// at POST /v1/tree. internal/conformance differentially tests every
// engine against every other over seeded random corpora.
//
// # Incremental what-if sessions
//
// Interactive tuning loops — resize a branch, re-read the skew —
// re-analyze the same tree hundreds of times with tiny diffs.
// OpenSession keeps the analysis state live between edits: the closed
// form re-runs its moment sweeps in a reused workspace, and the exact
// MNA path re-stamps edited values into a frozen-ordering
// factorization. A reduced read is answered by the frozen exact engine
// (TreeResult.Fallback set). cmd/whatif replays JSON edit scripts
// through a session, and the serving layer exposes sessions at
// POST /v1/session with TTL and LRU-capacity eviction.
//
// # Determinism
//
// Every answer is a pure function of its inputs (a deadline-degraded
// response says so and is never cached), so it is byte-identical
// across worker counts, GOMAXPROCS, cache hits, retries, warm starts
// and session journal replay. The delay transients stop at
// the last probe's first upward 50% crossing, under a step budget of
// the settling horizon extended 2.5³×; the samples before the stop do
// not depend on the budget, so a delay has the same bits as a run to
// any longer horizon. Every session read is bit-identical to a cold
// AnalyzeTree of the edited tree — closed and MNA reads to the same
// engine, reduced reads to MNA — and a session is driven by its edit
// sequence alone.
//
// Across versions, a change that moves result bits bumps the serving
// store's version (internal/serve's storeVersion), so a warm start
// drops the old snapshot instead of serving its bits, and lists every
// golden it moved. Version 3 moved tree MNA transients from band LU to
// the no-fill tree LU, which rounds differently: of the goldens, only
// internal/serve/testdata/tree_mna.json moved, by 1.2e-14 to 1.1e-13
// relative (its delays by at most 7.1e-14).
//
// Executables: cmd/rlcdelay, cmd/repeaterplan, cmd/netsim,
// cmd/paperfigs, cmd/netsweep (the sweep engine's CLI: population
// summary tables plus per-sample CSV), cmd/treeskew (per-sink tree
// delay/skew tables and tree population sweeps), cmd/whatif (replays
// what-if edit scripts through an incremental session), cmd/rlckitd
// (the HTTP serving daemon), cmd/benchgate (CI's benchmark-regression
// gate).
// Runnable examples: examples/quickstart, examples/clocktree,
// examples/busdesign, examples/techscaling, examples/netaudit,
// examples/servedemo.
//
// The benchmark suite in bench_test.go regenerates each paper artifact;
// internal/paper's package doc holds the experiment index, and
// cmd/paperfigs prints the measured results beside the paper's printed
// values.
package rlckit
