package mna

import (
	"fmt"

	"rlckit/internal/circuit"
)

// Frozen is an assembled system whose step ordering (the tree LU's
// forest order, or RCM) is pinned: Restamp re-stamps new element values
// (and sources) of a same-topology circuit into the frozen ordering —
// O(nnz) with no ordering recomputation — and Simulate runs the
// ordinary transient on it.
//
// This is the exact engine's incremental what-if path: the ordering is
// purely structural (it reads only the sparsity pattern), so for a
// value-only edit the frozen ordering is the one a cold Simulate would
// recompute, and Frozen.Simulate is bit-identical to mna.Simulate on
// the edited circuit. A structural edit (an element appearing or
// vanishing) changes the pattern; Restamp rejects it and the caller
// re-freezes.
type Frozen struct {
	sys    *system
	nNodes int
}

// Freeze assembles the circuit and pins its ordering.
func Freeze(ckt *circuit.Circuit) (*Frozen, error) {
	sys, err := assembleCore(ckt)
	if err != nil {
		return nil, err
	}
	sys.computeStepOrdering()
	return &Frozen{sys: sys, nNodes: ckt.Nodes()}, nil
}

// Restamp re-assembles values and sources from a same-topology circuit
// under the frozen ordering. The circuit must stamp the exact sparsity
// structure of the freeze-time circuit (same unknown count, same
// triplet counts, same source count) — element values and source
// waveforms are free to differ.
func (f *Frozen) Restamp(ckt *circuit.Circuit) error {
	sys, err := assembleCore(ckt)
	if err != nil {
		return err
	}
	if sys.n != f.sys.n || sys.nv != f.sys.nv ||
		sys.gt.NNZ() != f.sys.gt.NNZ() || sys.ct.NNZ() != f.sys.ct.NNZ() ||
		len(sys.sources) != len(f.sys.sources) || ckt.Nodes() != f.nNodes {
		return fmt.Errorf("mna: Restamp topology mismatch (%d vs %d unknowns, %d/%d vs %d/%d entries)",
			sys.n, f.sys.n, sys.gt.NNZ(), sys.ct.NNZ(), f.sys.gt.NNZ(), f.sys.ct.NNZ())
	}
	sys.forest, sys.perm, sys.inv, sys.kl, sys.ku = f.sys.forest, f.sys.perm, f.sys.inv, f.sys.kl, f.sys.ku
	f.sys = sys
	return nil
}

// Simulate runs a fixed-step transient on the frozen system, with
// Simulate's exact semantics.
func (f *Frozen) Simulate(opts Options) (*Result, error) {
	return simulateSys(f.sys, f.nNodes, opts)
}

// N returns the unknown count of the frozen system.
func (f *Frozen) N() int { return f.sys.n }
