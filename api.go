package rlckit

// This file is the public facade of the module: it re-exports the key
// types and entry points from the internal packages via aliases and thin
// wrappers, so downstream users can `import "rlckit"` without reaching
// into internal/ (which Go forbids). Power users inside this module can
// keep using the internal packages directly; both views are the same
// types.

import (
	"context"

	"rlckit/internal/core"
	"rlckit/internal/elmore"
	"rlckit/internal/mor"
	"rlckit/internal/netgen"
	"rlckit/internal/refeng"
	"rlckit/internal/repeater"
	"rlckit/internal/report"
	"rlckit/internal/rlctree"
	"rlckit/internal/screen"
	"rlckit/internal/session"
	"rlckit/internal/sweep"
	"rlckit/internal/tech"
	"rlckit/internal/tline"
)

// Version identifies the module build; cmd/rlckitd reports it from
// /healthz and expvar.
const Version = "0.3.0"

// Line is a uniform distributed RLC interconnect (per-unit-length R, L,
// C plus a length). See tline.Line.
type Line = tline.Line

// Drive is the paper's gate model: driver resistance Rtr, load
// capacitance CL, step amplitude V. See tline.Drive.
type Drive = tline.Drive

// Params are the canonical dimensionless parameters (RT, CT, ζ, ωn).
type Params = core.Params

// Buffer characterizes a technology's minimum repeater (R0, C0, Amin,
// Vdd). See repeater.Buffer.
type Buffer = repeater.Buffer

// RepeaterPlan is a complete repeater insertion design.
type RepeaterPlan = repeater.Plan

// TechNode is a technology node's device and wire parameters.
type TechNode = tech.Node

// ScreenResult is an inductance-significance verdict for one net.
type ScreenResult = screen.Result

// LineFromTotals builds a Line of the given length (meters) from total
// impedances Rt (Ω), Lt (H), Ct (F).
func LineFromTotals(rt, lt, ct, length float64) Line {
	return tline.FromTotals(rt, lt, ct, length)
}

// Analyze computes RT, CT, ζ and ωn for a driven line (Eqs. 3, 5, 6).
func Analyze(ln Line, d Drive) (Params, error) {
	return core.Analyze(ln, d)
}

// Delay returns the paper's closed-form 50% propagation delay (Eq. 9).
func Delay(ln Line, d Drive) (float64, error) {
	return core.Delay(ln, d)
}

// DelaySimulated returns the reference delay from the exact
// transmission-line transfer function, numerically inverted — the
// module's stand-in for a dynamic circuit simulation.
func DelaySimulated(ln Line, d Drive) (float64, error) {
	return refeng.DelayExactTF(ln, d, 0)
}

// DelayAuto returns Eq. 9 when the configuration is inside the model's
// validated accuracy domain and falls back to the exact engine
// otherwise; the boolean reports whether the closed form was used.
func DelayAuto(ln Line, d Drive) (float64, bool, error) {
	v, m, err := refeng.DelaySmart(ln, d)
	return v, m == refeng.MethodEq9, err
}

// MORInfo is a reduced-order model's certification metadata: the
// reduced order q, the full order it replaced, and the validated
// worst-case transfer-function error (percent of the response peak).
type MORInfo = mor.Info

// DelayReduced returns the 50% delay measured on a Krylov reduced-order
// model of the driven line (internal/mor): the ladder is reduced once
// to a certified q×q model and the delay read from its q²-per-step
// transient. It returns an error — rather than a degraded number —
// when the reduction cannot be certified; DelaySimulated is the
// canonical fallback (cmd/rlckitd's "reduced" method does exactly
// that and reports which engine answered).
func DelayReduced(ln Line, d Drive) (float64, MORInfo, error) {
	return refeng.DelayReduced(ln, d, refeng.ReducedConfig{})
}

// DelayReducedCtx is DelayReduced bounded by ctx: the Arnoldi build and
// the reduced transient check the context at amortized checkpoints and
// return an error wrapping the typed internal cancellation sentinels
// once it is done. SweepConfig.Ctx and TreeConfig.Ctx provide the same
// control for sweeps and tree analyses.
func DelayReducedCtx(ctx context.Context, ln Line, d Drive) (float64, MORInfo, error) {
	return refeng.DelayReduced(ln, d, refeng.ReducedConfig{Ctx: ctx})
}

// DelayRCOnly returns Sakurai's RC-only 50% delay — what a classic
// timing flow would report if it ignored inductance.
func DelayRCOnly(ln Line, d Drive) float64 {
	rt, _, ct := ln.Totals()
	return elmore.Sakurai50(rt, ct, d.Rtr, d.CL)
}

// DesignRepeaters returns the paper's inductance-aware repeater plan
// (Eqs. 14/15) for the line with the given minimum buffer.
func DesignRepeaters(ln Line, b Buffer) (RepeaterPlan, error) {
	return repeater.Design(ln, b, repeater.RLC)
}

// DesignRepeatersRC returns the classic RC-only (Bakoglu) plan — the
// baseline whose extra delay/area/energy the paper quantifies.
func DesignRepeatersRC(ln Line, b Buffer) (RepeaterPlan, error) {
	return repeater.Design(ln, b, repeater.RC)
}

// NeedsInductance screens a driven net: does RC-only analysis suffice,
// or is the net inside the inductance-significant window (or
// underdamped) for the given input rise time?
func NeedsInductance(ln Line, d Drive, riseTime float64) (ScreenResult, error) {
	return screen.Check(ln, d, riseTime)
}

// Technology returns a built-in technology node by name ("500nm",
// "350nm", "250nm", "180nm", "130nm").
func Technology(name string) (TechNode, error) {
	return tech.Lookup(name)
}

// Technologies lists the built-in node names.
func Technologies() []string {
	return tech.Names()
}

// Net is one named driven interconnect instance — the unit of a sweep
// population. See netgen.Net.
type Net = netgen.Net

// SweepConfig tunes a chip-scale sweep: rise time for screening,
// technology corners, Monte Carlo variation, worker count, optional
// repeater analysis. See sweep.Config.
type SweepConfig = sweep.Config

// SweepCorner is a named technology corner (scale factors on wire
// parasitics and driver strength).
type SweepCorner = sweep.Corner

// SweepMonteCarlo configures seeded process-variation sampling.
type SweepMonteCarlo = sweep.MonteCarlo

// SweepEstimator selects the per-sample delay engine of a sweep.
type SweepEstimator = sweep.Estimator

// Sweep estimators: the closed form (default), the guarded closed form
// (exact outside its accuracy domain), the exact engine for every
// sample, and the Krylov reduced-order engine (one certified basis per
// net, every corner/draw recombined through it; exact fallback).
const (
	SweepEstimatorClosed    = sweep.EstimatorClosed
	SweepEstimatorSmart     = sweep.EstimatorSmart
	SweepEstimatorSimulated = sweep.EstimatorSimulated
	SweepEstimatorReduced   = sweep.EstimatorReduced
)

// SweepResult is a completed sweep: per-sample records plus population
// statistics (percentiles, screening fractions, RC-vs-RLC error
// distributions).
type SweepResult = sweep.Result

// SweepSummary is a population statistic distribution (min/max, mean,
// percentiles). See report.Summary.
type SweepSummary = report.Summary

// ScreenStats tallies screening verdicts over a population.
type ScreenStats = screen.Stats

// SweepDelays runs delay, screening and (optionally) repeater analysis
// over a population of nets × corners × Monte Carlo samples on a
// bounded worker pool. Results are deterministic for a given seed
// regardless of worker count.
func SweepDelays(nets []Net, cfg SweepConfig) (*SweepResult, error) {
	return sweep.Run(nets, cfg)
}

// DefaultCorners returns the standard typical/fast/slow corner set.
func DefaultCorners() []SweepCorner {
	return sweep.DefaultCorners()
}

// RandomNets draws n reproducible random driven nets at a technology
// node — the standard way to build a sweep population. The same seed
// yields byte-identical nets at any GOMAXPROCS setting.
func RandomNets(seed int64, node TechNode, n int) ([]Net, error) {
	return netgen.RandomBatch(seed, node, n)
}

// RLCTree is a multi-sink lumped RLC interconnect tree — a clock tree
// or routed fanout net. Build with NewTree / Tree.Add / Tree.MarkSink.
// See rlctree.Tree.
type RLCTree = rlctree.Tree

// TreeDrive is the gate driving a tree root: a step of V volts behind
// resistance Rtr (sink loads live on the tree's sinks).
type TreeDrive = rlctree.Drive

// TreeEngine selects the per-sink tree delay engine.
type TreeEngine = rlctree.Engine

// Tree delay engines: the moment/two-pole closed form, one shared MNA
// transient with every sink probed, and a multi-output Krylov reduced
// model with exact fallback.
const (
	TreeEngineClosed  = rlctree.EngineClosed
	TreeEngineMNA     = rlctree.EngineMNA
	TreeEngineReduced = rlctree.EngineReduced
)

// TreeConfig tunes AnalyzeTree. The zero value selects the closed-form
// engine with default resolutions.
type TreeConfig = rlctree.Config

// TreeResult is a completed tree analysis: the per-sink delay table
// (delay, RC-only counterfactual, moments, ζ/ωn), the sink-to-sink
// skew, and the RC-vs-RLC skew error.
type TreeResult = rlctree.Result

// TreeNet is one named driven tree instance — the unit of a tree sweep
// population. See netgen.TreeNet.
type TreeNet = netgen.TreeNet

// TreeKind selects a RandomTrees topology family (balanced binary,
// random unbalanced fanout, or H-tree clock distribution).
type TreeKind = netgen.TreeKind

// Tree topology families.
const (
	TreeKindBalanced   = netgen.TreeBalanced
	TreeKindUnbalanced = netgen.TreeUnbalanced
	TreeKindClockH     = netgen.TreeClockH
)

// TreeSweepResult is a completed tree population sweep: per-sample
// skew records plus population statistics.
type TreeSweepResult = sweep.TreeResult

// NewTree returns an RLC tree with a single root node (the driver
// output net) of capacitance cRoot.
func NewTree(cRoot float64) (*RLCTree, error) {
	return rlctree.New(cRoot)
}

// AnalyzeTree computes per-sink 50% delays and sink-to-sink skew of a
// driven multi-sink tree with the configured engine. All sinks of the
// simulation engines come from one shared solve — analyzing a 64-sink
// tree costs one transient, not 64.
func AnalyzeTree(t *RLCTree, d TreeDrive, cfg TreeConfig) (*TreeResult, error) {
	return rlctree.Analyze(t, d, cfg)
}

// Session is an open what-if analysis over a tree: stream value edits
// with Session.Apply, read updated per-sink delays with
// Session.Result. Edits re-use state frozen at open time (moment
// workspaces, the MNA ordering). Every read is bit-identical to a cold
// AnalyzeTree of the edited tree: closed and MNA reads to the same
// engine, and reduced reads — answered by the frozen exact engine, with
// TreeResult.Fallback set — to cold MNA. See internal/session.
type Session = session.Session

// SessionEdit is one what-if edit (ops SessionOpBranch /
// SessionOpLoad / SessionOpDriver).
type SessionEdit = session.Edit

// SessionStats counts a session's fast-path decisions.
type SessionStats = session.Stats

// Session edit ops.
const (
	SessionOpBranch = session.OpBranch
	SessionOpLoad   = session.OpLoad
	SessionOpDriver = session.OpDriver
)

// OpenSession starts a what-if session over a copy of the tree.
// cfg.Engine is ignored; each Result call names its engine.
func OpenSession(t *RLCTree, d TreeDrive, cfg TreeConfig) (*Session, error) {
	return session.Open(t, d, cfg)
}

// SweepTreeDelays runs delay and skew analysis over a population of
// trees × corners × Monte Carlo samples on the shared worker pool.
// Results are deterministic for a given seed at every worker count.
func SweepTreeDelays(trees []TreeNet, cfg SweepConfig) (*TreeSweepResult, error) {
	return sweep.RunTrees(trees, cfg)
}

// RandomTrees draws n reproducible random multi-sink trees of the
// given topology family at a technology node. The same seed yields
// byte-identical trees at any GOMAXPROCS setting.
func RandomTrees(seed int64, node TechNode, kind TreeKind, sinks, n int) ([]TreeNet, error) {
	return netgen.RandomTreeBatch(seed, node, kind, sinks, n)
}
