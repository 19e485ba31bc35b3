// Package session is the stateful what-if layer over the tree
// engines: open a driven tree once, stream value edits, and read
// updated per-sink delays after each for less than a from-scratch
// analysis. It wraps rlctree.Incremental — which owns the incremental
// paths (the closed form in a reused moment workspace, exact MNA on a
// frozen ordering) — with the concerns the callers above it share:
// serialized access, atomic edit batches, a per-engine result cache for
// repeated reads of an unchanged state, and a closed flag for
// lifecycle owners (the HTTP layer's TTL eviction).
//
// Determinism: a session is driven by its edit sequence alone. The
// same Open + the same edits yield byte-identical Result values at any
// GOMAXPROCS setting and any server worker count, and every read is
// bit-identical to a cold rlctree.Analyze of the edited tree: closed
// and MNA reads to the same engine, and reduced reads — which the
// frozen exact engine answers, with Result.Fallback set — to cold MNA.
// The HTTP and conformance layers assert it.
package session

import (
	"context"
	"errors"
	"fmt"

	"rlckit/internal/rlctree"
)

// ErrClosed reports an operation on a closed session.
var ErrClosed = errors.New("session: closed")

// Edit ops.
const (
	OpBranch = "branch" // set a branch's series R and L
	OpLoad   = "load"   // set a sink's load capacitance
	OpDriver = "driver" // set the driver (Rtr, V)
)

// Edit is one what-if edit, in the wire shape the HTTP layer and
// cmd/whatif replay (units follow the tree wire format: Ω, H, F,
// volts).
type Edit struct {
	Op   string  `json:"op"`
	Node int     `json:"node,omitempty"`
	R    float64 `json:"r,omitempty"`
	L    float64 `json:"l,omitempty"`
	CL   float64 `json:"cl,omitempty"`
	Rtr  float64 `json:"rtr,omitempty"`
	V    float64 `json:"v,omitempty"`
}

// Session is an open what-if analysis. Safe for concurrent use; every
// method serializes on the session lock.
type Session struct {
	// The lock is deliberately coarse: an edit is microseconds and a
	// result read is the engine run itself — interleaving partial edits
	// with reads would break the edit-sequence determinism contract.
	mu        chan struct{} // 1-buffered mutex (acquired in lock)
	inc       *rlctree.Incremental
	gen       uint64
	history   [][]Edit
	cache     map[rlctree.Engine]cached
	cacheHits int
	closed    bool
}

type cached struct {
	gen uint64
	res *rlctree.Result
}

// Stats reports a session's path decisions: the incremental engine's
// counters plus the session-level result cache.
type Stats struct {
	rlctree.IncStats
	// Gen counts accepted edits (the state generation); CacheHits
	// result reads served from the per-engine cache without touching an
	// engine.
	Gen       uint64
	CacheHits int
}

// Open starts a what-if session over a copy of the tree; the caller's
// tree is not retained. cfg.Engine is ignored — every Result names its
// engine explicitly.
func Open(t *rlctree.Tree, d rlctree.Drive, cfg rlctree.Config) (*Session, error) {
	inc, err := rlctree.NewIncremental(t, d, cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{
		mu:    make(chan struct{}, 1),
		inc:   inc,
		cache: make(map[rlctree.Engine]cached),
	}
	return s, nil
}

func (s *Session) lock()   { s.mu <- struct{}{} }
func (s *Session) unlock() { <-s.mu }

// Apply applies a batch of edits atomically: on the first invalid edit
// the already-applied prefix is rolled back (value-exact inverse
// edits) and the error names the offending index. A failed Apply
// leaves the analysis state unchanged; the rolled-back edits still
// count in the incremental engine's Edits statistic, and a rolled-back
// structural edit may still cost one rebuild on the next read.
func (s *Session) Apply(edits []Edit) error {
	s.lock()
	defer s.unlock()
	if s.closed {
		return ErrClosed
	}
	type undo func() error
	undos := make([]undo, 0, len(edits))
	fail := func(i int, err error) error {
		for j := len(undos) - 1; j >= 0; j-- {
			if uerr := undos[j](); uerr != nil {
				// Inverse edits restore previously-valid values; a failure
				// here means the session state is unreliable.
				s.closed = true
				return fmt.Errorf("session: edit %d failed (%v) and rollback failed: %w", i, err, uerr)
			}
		}
		return fmt.Errorf("session: edit %d: %w", i, err)
	}
	for i, e := range edits {
		switch e.Op {
		case OpBranch:
			r0, l0, _, err := s.inc.Branch(e.Node)
			if err != nil {
				return fail(i, err)
			}
			if err := s.inc.SetBranch(e.Node, e.R, e.L); err != nil {
				return fail(i, err)
			}
			node := e.Node
			undos = append(undos, func() error { return s.inc.SetBranch(node, r0, l0) })
		case OpLoad:
			cl0, err := s.inc.SinkLoad(e.Node)
			if err != nil {
				return fail(i, err)
			}
			if err := s.inc.SetLoad(e.Node, e.CL); err != nil {
				return fail(i, err)
			}
			node := e.Node
			undos = append(undos, func() error { return s.inc.SetLoad(node, cl0) })
		case OpDriver:
			d0 := s.inc.Drive()
			if err := s.inc.SetDriver(rlctree.Drive{Rtr: e.Rtr, V: e.V}); err != nil {
				return fail(i, err)
			}
			undos = append(undos, func() error { return s.inc.SetDriver(d0) })
		default:
			return fail(i, fmt.Errorf("unknown op %q", e.Op))
		}
	}
	if len(edits) > 0 {
		s.gen++
		s.history = append(s.history, append([]Edit(nil), edits...))
	}
	return nil
}

// History returns a copy of every successfully applied edit batch, in
// application order. Because a session is driven by its edit sequence
// alone, Open with the same tree/drive/config followed by Apply of
// each batch reproduces this session's state — and therefore its
// Result bytes — exactly. This is the replay recipe the serving
// layer's crash-recovery journal is built on.
func (s *Session) History() [][]Edit {
	s.lock()
	defer s.unlock()
	out := make([][]Edit, len(s.history))
	for i, b := range s.history {
		out[i] = append([]Edit(nil), b...)
	}
	return out
}

// Result reads the per-sink delay table of the current state with the
// given engine, reusing the incremental paths — and, for a repeat
// read of an unchanged state, the cached result. The returned Result
// is shared and must be treated as read-only.
func (s *Session) Result(ctx context.Context, engine rlctree.Engine) (*rlctree.Result, error) {
	s.lock()
	defer s.unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if c, ok := s.cache[engine]; ok && c.gen == s.gen {
		s.cacheHits++
		return c.res, nil
	}
	res, err := s.inc.Analyze(ctx, engine)
	if err != nil {
		return nil, err
	}
	s.cache[engine] = cached{gen: s.gen, res: res}
	return res, nil
}

// Tree returns a copy of the current (edited) tree — the net a cold
// analysis must be given to reproduce Result.
func (s *Session) Tree() *rlctree.Tree {
	s.lock()
	defer s.unlock()
	return s.inc.Tree()
}

// Drive returns the current drive.
func (s *Session) Drive() rlctree.Drive {
	s.lock()
	defer s.unlock()
	return s.inc.Drive()
}

// Stats returns the session's counters.
func (s *Session) Stats() Stats {
	s.lock()
	defer s.unlock()
	return Stats{IncStats: s.inc.Stats(), Gen: s.gen, CacheHits: s.cacheHits}
}

// Close marks the session closed; subsequent operations return
// ErrClosed. Closing twice is a no-op.
func (s *Session) Close() {
	s.lock()
	defer s.unlock()
	s.closed = true
}
