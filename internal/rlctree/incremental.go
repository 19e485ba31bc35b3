package rlctree

import (
	"context"
	"fmt"

	"rlckit/internal/mna"
)

// This file is the incremental (what-if) twin of engines.go: load a
// tree once, stream value edits, and re-read per-sink delays after
// each for less than a from-scratch analysis. Every read is
// bit-identical to a cold Analyze of the edited tree (a reduced read
// to the EngineMNA one):
//
//   - closed: the O(n) moment sweeps re-run allocation-free in a
//     reused workspace, then the same per-sink crossing search as the
//     cold path.
//   - mna: the RCM ordering is structural, so value edits re-stamp the
//     frozen ordering (mna.Frozen) and skip the symbolic work; the
//     crossing-mode transient is the cold one, step for step.
//   - reduced: answered by the frozen exact engine, with
//     Result.Fallback set. A frozen reduced basis cannot stop its
//     transient at the last crossing without giving up the
//     whole-horizon stability scan it needs, and the stopped exact
//     transient is as fast, so a session never builds one.
//
// A structural edit — a branch r or l, or a node's total capacitance,
// crossing zero, which changes the circuit ToCircuit emits — discards
// the frozen ordering; the next MNA read rebuilds it (counted in
// IncStats.Rebuilds).

// IncStats counts the incremental engine's path decisions.
type IncStats struct {
	// Edits counts accepted edits; Analyzes completed result reads.
	Edits, Analyzes int
	// Fallbacks counts EngineReduced reads, which the frozen exact
	// engine answers.
	Fallbacks int
	// Rebuilds counts frozen-ordering rebuilds after structural edits.
	Rebuilds int
}

// Incremental is a stateful what-if analyzer over one tree: edit
// values (SetBranch/SetLoad/SetDriver), then Analyze with any engine.
// Not safe for concurrent use; callers serialize (internal/session
// wraps it with a lock).
type Incremental struct {
	t   *Tree
	d   Drive
	cfg Config

	ws          momentWorkspace // closed-form sweep scratch
	structDirty bool
	frz         *mna.Frozen // exact-engine state

	stats IncStats
}

// NewIncremental opens a what-if session over a copy of the tree. The
// configured engine is only Analyze's default; every engine's state is
// built lazily on first use.
func NewIncremental(t *Tree, d Drive, cfg Config) (*Incremental, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	ct, err := t.Scale(1, 1, 1) // deep copy; ×1 is bit-exact
	if err != nil {
		return nil, err
	}
	return &Incremental{t: ct, d: d, cfg: cfg.withDefaults()}, nil
}

// Tree returns a copy of the current (edited) tree — the net a cold
// analysis must be given to reproduce Analyze's answer.
func (inc *Incremental) Tree() *Tree {
	ct, _ := inc.t.Scale(1, 1, 1)
	return ct
}

// Drive returns the current drive.
func (inc *Incremental) Drive() Drive { return inc.d }

// Branch returns a branch's current series values (see Tree.Branch).
func (inc *Incremental) Branch(node int) (r, l, c float64, err error) {
	return inc.t.Branch(node)
}

// SinkLoad returns a sink's current load capacitance (see
// Tree.SinkLoad).
func (inc *Incremental) SinkLoad(node int) (float64, error) {
	return inc.t.SinkLoad(node)
}

// Stats returns the path counters.
func (inc *Incremental) Stats() IncStats { return inc.stats }

// SetBranch edits the series branch into a node. An r or l crossing
// zero is a structural edit (the emitted circuit changes shape) and
// schedules a frozen-ordering rebuild.
func (inc *Incremental) SetBranch(node int, r, l float64) error {
	if err := inc.t.checkNode("node", node); err != nil {
		return err
	}
	oldR, oldL := inc.t.r[node], inc.t.l[node]
	if err := inc.t.SetBranch(node, r, l); err != nil {
		return err
	}
	if (oldR > 0) != (r > 0) || (oldL > 0) != (l > 0) {
		inc.structDirty = true
	}
	inc.stats.Edits++
	return nil
}

// SetLoad edits a sink's load capacitance.
func (inc *Incremental) SetLoad(node int, cl float64) error {
	if err := inc.t.checkNode("sink", node); err != nil {
		return err
	}
	oldTot := inc.t.c[node] + inc.t.load[node]
	if err := inc.t.SetLoad(node, cl); err != nil {
		return err
	}
	if (oldTot > 0) != (inc.t.c[node]+cl > 0) {
		inc.structDirty = true
	}
	inc.stats.Edits++
	return nil
}

// SetDriver edits the drive. The driver resistance is always stamped
// (ToCircuit substitutes 1e-6 Ω for an ideal driver), so this is never
// structural.
func (inc *Incremental) SetDriver(d Drive) error {
	if err := d.Validate(); err != nil {
		return err
	}
	inc.d = d
	inc.stats.Edits++
	return nil
}

// closedTable is closedTable on the reused workspace — the same
// arithmetic as the cold path, so the values are bit-identical.
func (inc *Incremental) closedTable() []SinkDelay {
	m := inc.t.momentsInto(inc.d.Rtr, &inc.ws)
	out := make([]SinkDelay, len(inc.t.sinks))
	for k, node := range inc.t.sinks {
		s := &out[k]
		s.Node = node
		s.M1, s.M2, s.M3 = m.M1[node], m.M2[node], m.M3[node]
		s.DelayClosed, s.Zeta, s.OmegaN, s.FitErr, s.InDomain = momentDelay(s.M1, s.M2, s.M3, m.M4[node])
		s.DelayRC, _, _, _, _ = momentDelay(s.M1, m.M2RC[node], m.M3RC[node], m.M4RC[node])
	}
	return out
}

// Analyze reads the per-sink delay table of the current (edited) tree
// with the given engine, reusing as much frozen state as the edit
// history allows. ctx cancels the simulation engines exactly as
// Config.Ctx does for the cold Analyze.
func (inc *Incremental) Analyze(ctx context.Context, engine Engine) (*Result, error) {
	cfg := inc.cfg
	cfg.Ctx = ctx
	if err := inc.t.validate(); err != nil {
		return nil, err
	}
	if inc.structDirty {
		if inc.frz != nil {
			inc.stats.Rebuilds++
		}
		inc.frz = nil
		inc.structDirty = false
	}
	table := inc.closedTable()
	res := &Result{Engine: engine, Sinks: table}
	switch engine {
	case EngineClosed:
		for i := range res.Sinks {
			res.Sinks[i].Delay = res.Sinks[i].DelayClosed
		}
	case EngineMNA, EngineReduced:
		delays, err := inc.delaysFrozenMNA(cfg, table)
		if err != nil {
			return nil, err
		}
		if engine == EngineReduced {
			res.Fallback = true
			inc.stats.Fallbacks++
		}
		for i := range res.Sinks {
			res.Sinks[i].Delay = delays[i]
		}
	default:
		return nil, fmt.Errorf("rlctree: unknown engine %v", engine)
	}
	res.finishSkew()
	inc.stats.Analyzes++
	return res, nil
}

// delaysFrozenMNA is delaysMNA with the assembly's RCM/symbolic work
// frozen: the circuit is re-emitted with the current values, re-stamped
// into the pinned ordering, and simulated with the exact plan a cold
// run would use — bit-identical output, minus the ordering cost.
func (inc *Incremental) delaysFrozenMNA(cfg Config, table []SinkDelay) ([]float64, error) {
	dt, delay, tEnd := inc.t.transientPlan(inc.d, cfg, table)
	ckt, nodeOf, err := inc.t.ToCircuit(inc.d, delay)
	if err != nil {
		return nil, err
	}
	if inc.frz == nil {
		if inc.frz, err = mna.Freeze(ckt); err != nil {
			return nil, err
		}
	} else if err = inc.frz.Restamp(ckt); err != nil {
		// A structural change slipped past the edit-time detection;
		// re-freeze rather than fail.
		inc.stats.Rebuilds++
		if inc.frz, err = mna.Freeze(ckt); err != nil {
			return nil, err
		}
	}
	return runCrossings(inc.frz.Simulate, inc.t.crossOptions(inc.d, cfg, nodeOf, dt, tEnd), delay-dt/2, "sink")
}
