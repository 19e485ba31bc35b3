package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"rlckit"
)

// This file is the /v1/tree endpoint: per-sink delay and skew analysis
// of a multi-sink RLC tree over the wire. Trees are variable-length,
// so the canonical cache key carries an exact-bits string encoding of
// the request's physics (canonicalTree) rather than the raw JSON —
// two bodies that differ only in formatting share a cache entry.

// TreeBranchSpec is one tree branch: the node it hangs under and its
// series resistance (Ω), inductance (H) and node capacitance (F).
// Branch i of the request creates node i+1 (the root is node 0).
type TreeBranchSpec struct {
	Parent int     `json:"parent"`
	R      float64 `json:"r"`
	L      float64 `json:"l"`
	C      float64 `json:"c"`
}

// TreeSinkSpec marks a node as a sink with load capacitance CL.
type TreeSinkSpec struct {
	Node int     `json:"node"`
	CL   float64 `json:"cl"`
}

// TreeSpec describes a multi-sink RLC tree.
type TreeSpec struct {
	// RootC is the root node's capacitance to ground (F).
	RootC float64 `json:"root_c"`
	// Branches list the non-root nodes in construction order.
	Branches []TreeBranchSpec `json:"branches"`
	// Sinks mark the receiver pins.
	Sinks []TreeSinkSpec `json:"sinks"`
}

// TreeDriveSpec is the gate driving the tree root.
type TreeDriveSpec struct {
	Rtr float64 `json:"rtr"`
	V   float64 `json:"v,omitempty"`
}

// TreeRequest asks for the per-sink delay table and skew of a tree.
type TreeRequest struct {
	Tree  TreeSpec      `json:"tree"`
	Drive TreeDriveSpec `json:"drive"`
	// Engine selects the estimator: "closed" (default — the moment /
	// two-pole closed form), "mna" (one shared transient, every sink
	// probed), or "reduced" (multi-output Krylov reduced model; falls
	// back to "mna" when certification fails).
	Engine string `json:"engine,omitempty"`
}

// TreeSinkJSON is one sink row of the response.
type TreeSinkJSON struct {
	Node     int     `json:"node"`
	DelayS   float64 `json:"delay_s"`
	DelayRCS float64 `json:"delay_rc_s"`
	Zeta     float64 `json:"zeta"`
	OmegaN   float64 `json:"omega_n"`
	InDomain bool    `json:"in_domain"`
}

// TreeResponse is the per-sink delay table and skew statistics.
type TreeResponse struct {
	Engine      string         `json:"engine"` // estimator that produced delay_s
	Sinks       []TreeSinkJSON `json:"sinks"`
	MinDelayS   float64        `json:"min_delay_s"`
	MaxDelayS   float64        `json:"max_delay_s"`
	MaxSkewS    float64        `json:"max_skew_s"`
	MaxSkewRCS  float64        `json:"max_skew_rc_s"`
	SkewErrPct  float64        `json:"skew_err_pct"`
	MORQ        int            `json:"mor_q,omitempty"`
	MORN        int            `json:"mor_n,omitempty"`
	MORErrPct   float64        `json:"mor_err_pct,omitempty"`
	MORFallback bool           `json:"mor_fallback,omitempty"`
	// Degraded marks a response the server answered with a cheaper
	// engine than requested to meet the request deadline (the Engine
	// field reports the engine that actually ran); DegradeReason spells
	// out the budget arithmetic. Degraded responses are never cached.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
}

// maxTreeNodes bounds one /v1/tree request's node count — enforced by
// the decoder before any compute is scheduled.
const maxTreeNodes = 4096

func isFinite(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v)
}

// canonicalTree renders the exact physics of a validated tree request
// as a compact string for the comparable cache key: every float is
// encoded with exact hex bits, so two requests collide only when they
// describe bit-identical trees.
func canonicalTree(req *TreeRequest) string {
	var b strings.Builder
	hx := func(v float64) {
		b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
	}
	hx(req.Tree.RootC)
	for _, br := range req.Tree.Branches {
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(br.Parent))
		b.WriteByte(',')
		hx(br.R)
		b.WriteByte(',')
		hx(br.L)
		b.WriteByte(',')
		hx(br.C)
	}
	b.WriteByte('|')
	for _, s := range req.Tree.Sinks {
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(s.Node))
		b.WriteByte(',')
		hx(s.CL)
	}
	return b.String()
}

// parseTreeRequest decodes and validates a /v1/tree body, building the
// tree (construction is the validation) and the canonical cache key.
func parseTreeRequest(r io.Reader) (*rlckit.RLCTree, rlckit.TreeDrive, cacheKey, error) {
	var req TreeRequest
	var drv rlckit.TreeDrive
	if err := decodeStrict(r, &req); err != nil {
		return nil, drv, cacheKey{}, err
	}
	eng, err := parseEnum("engine", req.Engine, treeEngines)
	if err != nil {
		return nil, drv, cacheKey{}, err
	}
	if len(req.Tree.Branches)+1 > maxTreeNodes {
		return nil, drv, cacheKey{}, fmt.Errorf("tree has %d nodes, limit %d", len(req.Tree.Branches)+1, maxTreeNodes)
	}
	if len(req.Tree.Sinks) == 0 {
		return nil, drv, cacheKey{}, fmt.Errorf("tree has no sinks")
	}
	t, err := rlckit.NewTree(req.Tree.RootC)
	if err != nil {
		return nil, drv, cacheKey{}, err
	}
	for i, br := range req.Tree.Branches {
		if _, err := t.Add(br.Parent, br.R, br.L, br.C); err != nil {
			return nil, drv, cacheKey{}, fmt.Errorf("branch %d: %w", i, err)
		}
	}
	for i, s := range req.Tree.Sinks {
		if err := t.MarkSink(s.Node, s.CL); err != nil {
			return nil, drv, cacheKey{}, fmt.Errorf("sink %d: %w", i, err)
		}
	}
	drv = rlckit.TreeDrive{Rtr: req.Drive.Rtr, V: req.Drive.V}
	if err := drv.Validate(); err != nil {
		return nil, drv, cacheKey{}, err
	}
	key := cacheKey{
		kind:   kindTree,
		method: uint8(eng),
		drive:  rlckit.Drive{Rtr: drv.Rtr, V: drv.V},
		tree:   canonicalTree(&req),
	}
	return t, drv, key, nil
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	t, drv, key, err := parseTreeRequest(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cached(key); ok {
		s.writeJSON(w, body, true)
		return
	}
	ctx, release := s.computeCtx(r)
	defer release()
	// Deadline-aware degradation: pick the engine the remaining budget
	// can afford (the requested one when it fits).
	engine, reason := degradeTree(ctx, rlckit.TreeEngine(key.method), t.Len())
	respond(s, w, ctx, key, func() (TreeResponse, bool, error) {
		cfg := rlckit.TreeConfig{Ctx: ctx, Engine: engine, Pencils: s.pencils}
		res, err := rlckit.AnalyzeTree(t, drv, cfg)
		if err != nil {
			return TreeResponse{}, true, err
		}
		resp, err := s.treeResponse(res, reason)
		if err != nil {
			return TreeResponse{}, true, err
		}
		return resp, reason == "", nil
	})
}

// treeResponse renders a tree analysis as the wire response — the one
// code path shared by /v1/tree and the what-if session endpoints, so a
// session edit's embedded result is byte-identical to a cold /v1/tree
// of the same net whenever the underlying tables are. It also owns the
// degradation/MOR counters.
func (s *Server) treeResponse(res *rlckit.TreeResult, reason string) (TreeResponse, error) {
	// Extreme-but-decodable element values can overflow the moment
	// products into ±Inf/NaN delays; JSON cannot carry those, so
	// reject the request instead of letting json.Marshal turn it
	// into a 500.
	for _, sk := range res.Sinks {
		if !isFinite(sk.Delay) || !isFinite(sk.DelayRC) {
			return TreeResponse{}, fmt.Errorf("tree analysis is numerically degenerate (sink %d delay overflows); rescale the element values", sk.Node)
		}
	}
	resp := TreeResponse{
		Engine:     res.Engine.String(),
		MinDelayS:  res.MinDelay,
		MaxDelayS:  res.MaxDelay,
		MaxSkewS:   res.MaxSkew,
		MaxSkewRCS: res.MaxSkewRC,
		SkewErrPct: res.SkewErrPct,
	}
	if reason != "" {
		resp.Degraded = true
		resp.DegradeReason = reason
		s.degraded.Add(1)
	}
	if res.Fallback {
		// Exact-fallback contract: certification failure selects the
		// shared-transient engine, it does not fail the request.
		resp.Engine = rlckit.TreeEngineMNA.String()
		resp.MORFallback = true
		s.morFallbacks.Add(1)
	} else if res.Reduced {
		resp.MORQ, resp.MORN, resp.MORErrPct = res.MORInfo.Q, res.MORInfo.N, res.MORInfo.EstErrPct
		s.morHits.Add(1)
	}
	for _, sk := range res.Sinks {
		row := TreeSinkJSON{
			Node: sk.Node, DelayS: sk.Delay, DelayRCS: sk.DelayRC,
			Zeta: sk.Zeta, OmegaN: sk.OmegaN, InDomain: sk.InDomain,
		}
		// A collapsed fit reports ζ, ωn = +Inf (or NaN), which JSON
		// cannot carry; such sinks are out of domain and ship zeros.
		if !isFinite(row.Zeta) || !isFinite(row.OmegaN) {
			row.Zeta, row.OmegaN = 0, 0
		}
		resp.Sinks = append(resp.Sinks, row)
	}
	return resp, nil
}
