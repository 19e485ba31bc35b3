package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"rlckit"
)

// Wire types for the /v1/* endpoints. Every physical quantity crosses
// the wire in base SI units (ohms, henries, farads, meters, seconds) as
// JSON numbers; the engineering-notation sugar of the CLIs stays in the
// CLIs. Decoding is strict — unknown fields are rejected — so a typoed
// field name fails loudly instead of silently analyzing the wrong net.

// LineSpec describes a uniform RLC line by total impedances, matching
// the net spec rows cmd/netsweep reads.
type LineSpec struct {
	// Rt, Lt, Ct are the total line resistance (Ω), inductance (H) and
	// capacitance (F); Length is the line length in meters.
	Rt     float64 `json:"rt"`
	Lt     float64 `json:"lt"`
	Ct     float64 `json:"ct"`
	Length float64 `json:"length"`
}

// DriveSpec is the paper's gate model: driver resistance, far-end load,
// optional step amplitude (defaults to 1 V).
type DriveSpec struct {
	Rtr float64 `json:"rtr"`
	CL  float64 `json:"cl"`
	V   float64 `json:"v,omitempty"`
}

// line converts to the per-unit-length representation. The length is
// checked here because FromTotals divides by it: a zero or negative
// length would otherwise surface as a confusing ±Inf in the per-meter
// validation errors.
func (l LineSpec) line() (rlckit.Line, error) {
	if !(l.Length > 0) || math.IsInf(l.Length, 0) {
		return rlckit.Line{}, fmt.Errorf("line.length must be positive and finite, got %g", l.Length)
	}
	ln := rlckit.LineFromTotals(l.Rt, l.Lt, l.Ct, l.Length)
	return ln, ln.Validate()
}

func (d DriveSpec) drive() rlckit.Drive {
	return rlckit.Drive{Rtr: d.Rtr, CL: d.CL, V: d.V}
}

// DelayRequest asks for the 50% propagation delay of one driven net.
type DelayRequest struct {
	Line  LineSpec  `json:"line"`
	Drive DriveSpec `json:"drive"`
	// Method selects the estimator: "auto" (default — Eq. 9 inside its
	// validated accuracy domain, exact transmission-line engine
	// outside), "eq9", "exact", or "reduced" (Krylov reduced-order
	// transient with certification metadata in the response; falls
	// back to "exact" when the model cannot be certified).
	Method string `json:"method,omitempty"`
}

// DelayResponse reports the RLC delay alongside the RC-only answer a
// classic timing flow would give, plus the dimensionless parameters.
type DelayResponse struct {
	DelayS   float64 `json:"delay_s"`
	Method   string  `json:"method"` // estimator that produced delay_s
	DelayRCS float64 `json:"delay_rc_s"`
	RCErrPct float64 `json:"rc_err_pct"`
	RT       float64 `json:"rt"`
	CT       float64 `json:"ct"`
	Zeta     float64 `json:"zeta"`
	OmegaN   float64 `json:"omega_n"`
	// Reduced-order accuracy metadata, present only for method
	// "reduced": the model order, the full order it replaced, and the
	// validated transfer-function error (percent of the response
	// peak). MORFallback marks a "reduced" request that the exact
	// engine answered because certification failed.
	MORQ        int     `json:"mor_q,omitempty"`
	MORN        int     `json:"mor_n,omitempty"`
	MORErrPct   float64 `json:"mor_err_pct,omitempty"`
	MORFallback bool    `json:"mor_fallback,omitempty"`
}

// ScreenRequest asks whether a net needs inductance-aware analysis for
// a given input rise time.
type ScreenRequest struct {
	Line  LineSpec  `json:"line"`
	Drive DriveSpec `json:"drive"`
	RiseS float64   `json:"rise_s"`
}

// ScreenResponse is the screening verdict (see internal/screen).
type ScreenResponse struct {
	NeedsRLC    bool    `json:"needs_rlc"`
	InWindow    bool    `json:"in_window"`
	Underdamped bool    `json:"underdamped"`
	LMinM       float64 `json:"l_min_m"`
	LMaxM       float64 `json:"l_max_m"`
	Zeta        float64 `json:"zeta"`
}

// BufferSpec characterizes the minimum repeater of a technology.
type BufferSpec struct {
	R0   float64 `json:"r0"`
	C0   float64 `json:"c0"`
	Amin float64 `json:"amin,omitempty"`
	Vdd  float64 `json:"vdd,omitempty"`
}

// RepeatersRequest asks for a repeater insertion plan. The buffer comes
// either from an explicit BufferSpec or from a built-in technology node
// name; exactly one must be given.
type RepeatersRequest struct {
	Line   LineSpec    `json:"line"`
	Buffer *BufferSpec `json:"buffer,omitempty"`
	Node   string      `json:"node,omitempty"`
	// Model is "rlc" (default — the paper's Eqs. 14/15) or "rc"
	// (Bakoglu, the baseline the paper costs out).
	Model string `json:"model,omitempty"`
}

// RepeatersResponse is a complete insertion design (repeater.Plan).
type RepeatersResponse struct {
	Model         string  `json:"model"`
	H             float64 `json:"h"`
	K             float64 `json:"k"`
	KInt          int     `json:"k_int"`
	HForKInt      float64 `json:"h_for_k_int"`
	TLR           float64 `json:"tlr"`
	TotalDelayS   float64 `json:"total_delay_s"`
	TotalDelayInt float64 `json:"total_delay_int_s"`
	Area          float64 `json:"area"`
	AreaInt       float64 `json:"area_int"`
	SwitchEnergyJ float64 `json:"switch_energy_j"`
}

// SweepRequest runs a seeded Monte Carlo population sweep server-side
// and returns only the aggregate statistics (per-sample data would be
// megabytes; use cmd/netsweep for that).
type SweepRequest struct {
	// Node names the technology the random population is drawn at.
	Node string `json:"node"`
	// Nets is the population size; Seed makes the population and all
	// Monte Carlo draws reproducible.
	Nets int   `json:"nets"`
	Seed int64 `json:"seed"`
	// RiseS is the screening rise time in seconds.
	RiseS float64 `json:"rise_s"`
	// Corners names the corners to sweep ("tt", "ff", "ss"); empty
	// means all three.
	Corners []string `json:"corners,omitempty"`
	// Samples is the Monte Carlo draws per (net, corner); 0 means 1.
	Samples int `json:"samples,omitempty"`
	// Sigma and DriveSigma are the log-normal variation sigmas on the
	// wire parasitics and the driver resistance.
	Sigma      float64 `json:"sigma,omitempty"`
	DriveSigma float64 `json:"drive_sigma,omitempty"`
	// Repeaters additionally runs repeater mis-sizing analysis with the
	// node's buffer.
	Repeaters bool `json:"repeaters,omitempty"`
	// Estimator selects the per-sample delay engine: "closed" (default),
	// "smart", "simulated", or "reduced". Under a request deadline the
	// server may downgrade an expensive estimator to a cheaper one
	// rather than time out; the response reports the estimator that
	// actually ran and whether it was degraded.
	Estimator string `json:"estimator,omitempty"`
}

// SummaryJSON mirrors report.Summary on the wire.
type SummaryJSON struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	P5     float64 `json:"p5"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// ScreenStatsJSON mirrors screen.Stats on the wire.
type ScreenStatsJSON struct {
	Total       int     `json:"total"`
	NeedsRLC    int     `json:"needs_rlc"`
	InWindow    int     `json:"in_window"`
	Underdamped int     `json:"underdamped"`
	FracRLC     float64 `json:"frac_rlc"`
}

// SweepCornerJSON is one corner's aggregate slice.
type SweepCornerJSON struct {
	Name   string          `json:"name"`
	Screen ScreenStatsJSON `json:"screen"`
	Delay  SummaryJSON     `json:"delay_s"`
	RCErr  SummaryJSON     `json:"rc_err_pct"`
}

// SweepResponse is the population statistics of a completed sweep.
type SweepResponse struct {
	Nets    int      `json:"nets"`
	Corners []string `json:"corners"`
	Draws   int      `json:"draws"`
	Samples int      `json:"samples"`
	// Estimator is the per-sample delay engine that actually ran;
	// Degraded marks a response the server downgraded from the
	// requested estimator to meet the request deadline, with the
	// decision spelled out in DegradeReason. Degraded responses are
	// never cached.
	Estimator     string            `json:"estimator"`
	Degraded      bool              `json:"degraded,omitempty"`
	DegradeReason string            `json:"degrade_reason,omitempty"`
	Screen        ScreenStatsJSON   `json:"screen"`
	Delay         SummaryJSON       `json:"delay_s"`
	DelayRC       SummaryJSON       `json:"delay_rc_s"`
	RCErr         SummaryJSON       `json:"rc_err_pct"`
	AbsRCErr      SummaryJSON       `json:"abs_rc_err_pct"`
	FracErrOver10 float64           `json:"frac_err_over_10"`
	FracErrOver20 float64           `json:"frac_err_over_20"`
	RepKRatio     *SummaryJSON      `json:"rep_k_ratio,omitempty"`
	RepDelayInc   *SummaryJSON      `json:"rep_delay_inc_pct,omitempty"`
	PerCorner     []SweepCornerJSON `json:"per_corner"`
}

// ErrorResponse is the body of every non-2xx JSON response. Reason and
// RetryAfterS are populated on 503s: Reason distinguishes a canceled
// request ("canceled"), an expired compute deadline ("deadline") and a
// shutting-down server ("shutdown"), and RetryAfterS mirrors the
// adaptive Retry-After header so JSON-only clients can back off
// without header plumbing.
type ErrorResponse struct {
	Error       string `json:"error"`
	Reason      string `json:"reason,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// Request-size and sweep-size guards. The decoder enforces these before
// any compute is scheduled, so a hostile request can neither allocate a
// huge population nor occupy the pool for minutes.
const (
	// maxBodyBytes bounds a /v1/* request body.
	maxBodyBytes = 1 << 20
	// maxSweepNets and maxSweepSamples bound one sweep request's
	// population dimensions; maxSweepTotal bounds the product
	// nets × corners × draws.
	maxSweepNets    = 50000
	maxSweepSamples = 64
	maxSweepTotal   = 500000
)

// delay methods, in canonical (cache key) form.
const (
	methodAuto uint8 = iota
	methodEq9
	methodExact
	methodReduced
)

func parseMethod(s string) (uint8, error) {
	switch s {
	case "", "auto":
		return methodAuto, nil
	case "eq9":
		return methodEq9, nil
	case "exact":
		return methodExact, nil
	case "reduced":
		return methodReduced, nil
	default:
		return 0, fmt.Errorf("unknown method %q (have auto, eq9, exact, reduced)", s)
	}
}

// The sweep estimators and tree engines a request may name, default
// first. A request names one by its String(); the cache key stores its
// facade value, so persisted snapshot keys depend on the enum values
// (TestEngineEnumValuesPinned).
var (
	sweepEstimators = []rlckit.SweepEstimator{
		rlckit.SweepEstimatorClosed, rlckit.SweepEstimatorSmart,
		rlckit.SweepEstimatorSimulated, rlckit.SweepEstimatorReduced,
	}
	treeEngines = []rlckit.TreeEngine{
		rlckit.TreeEngineClosed, rlckit.TreeEngineMNA, rlckit.TreeEngineReduced,
	}
)

// parseEnum resolves a request's estimator or engine name: "" selects
// the default values[0], anything else must match a value's String().
func parseEnum[E fmt.Stringer](what, name string, values []E) (E, error) {
	if name == "" {
		return values[0], nil
	}
	names := make([]string, len(values))
	for i, v := range values {
		if name == v.String() {
			return v, nil
		}
		names[i] = v.String()
	}
	var zero E
	return zero, fmt.Errorf("unknown %s %q (have %s)", what, name, strings.Join(names, ", "))
}

// endpoint kinds, for the shared cache's key space and the per-endpoint
// request counters (the session kinds never enter the cache — what-if
// sessions are stateful and bypass it).
const (
	kindDelay uint8 = iota
	kindScreen
	kindRepeaters
	kindSweep
	kindTree
	kindSession
	kindSessionEdit
)

// cacheKey is the canonical identity of a request: the exact analyzed
// values of (Line, Drive, config), not the request bytes, so two
// requests that differ only in JSON formatting share an entry. All
// fields are comparable; the cache hashes the whole struct.
type cacheKey struct {
	kind    uint8
	method  uint8 // delay method, repeater model, or facade SweepEstimator/TreeEngine value
	line    rlckit.Line
	drive   rlckit.Drive
	rise    float64
	buffer  rlckit.Buffer
	node    string
	nets    int
	seed    int64
	samples int
	sigma   float64
	drvSig  float64
	corners string
	repeat  bool
	// tree is the canonical exact-bits encoding of a /v1/tree request's
	// topology and element values (canonicalTree): trees are
	// variable-length, so they enter the comparable key as a string.
	tree string
}

// decodeStrict decodes one JSON object from r into v, rejecting unknown
// fields and trailing garbage.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second Decode must see EOF: "{}{}" is not one request.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// parseDelayRequest decodes and validates a /v1/delay body into its
// canonical cache key, which carries everything the handler computes
// from.
func parseDelayRequest(r io.Reader) (cacheKey, error) {
	var req DelayRequest
	if err := decodeStrict(r, &req); err != nil {
		return cacheKey{}, err
	}
	m, err := parseMethod(req.Method)
	if err != nil {
		return cacheKey{}, err
	}
	ln, err := req.Line.line()
	if err != nil {
		return cacheKey{}, err
	}
	drv := req.Drive.drive()
	if err := drv.Validate(); err != nil {
		return cacheKey{}, err
	}
	return cacheKey{kind: kindDelay, method: m, line: ln, drive: drv}, nil
}

// parseScreenRequest decodes and validates a /v1/screen body into its
// canonical cache key.
func parseScreenRequest(r io.Reader) (cacheKey, error) {
	var req ScreenRequest
	if err := decodeStrict(r, &req); err != nil {
		return cacheKey{}, err
	}
	ln, err := req.Line.line()
	if err != nil {
		return cacheKey{}, err
	}
	drv := req.Drive.drive()
	if err := drv.Validate(); err != nil {
		return cacheKey{}, err
	}
	if req.RiseS <= 0 {
		return cacheKey{}, fmt.Errorf("rise_s must be positive, got %g", req.RiseS)
	}
	return cacheKey{kind: kindScreen, line: ln, drive: drv, rise: req.RiseS}, nil
}

// parseRepeatersRequest decodes and validates a /v1/repeaters body
// into its canonical cache key (the buffer is resolved from the node
// when one is named).
func parseRepeatersRequest(r io.Reader) (cacheKey, error) {
	var req RepeatersRequest
	if err := decodeStrict(r, &req); err != nil {
		return cacheKey{}, err
	}
	ln, err := req.Line.line()
	if err != nil {
		return cacheKey{}, err
	}
	var m uint8
	switch req.Model {
	case "", "rlc":
		m = 0
	case "rc":
		m = 1
	default:
		return cacheKey{}, fmt.Errorf("unknown model %q (have rlc, rc)", req.Model)
	}
	key := cacheKey{kind: kindRepeaters, method: m, line: ln}
	switch {
	case req.Buffer != nil && req.Node != "":
		return cacheKey{}, fmt.Errorf("give either buffer or node, not both")
	case req.Buffer != nil:
		key.buffer = rlckit.Buffer{R0: req.Buffer.R0, C0: req.Buffer.C0, Amin: req.Buffer.Amin, Vdd: req.Buffer.Vdd}
		if err := key.buffer.Validate(); err != nil {
			return cacheKey{}, err
		}
	case req.Node != "":
		node, err := rlckit.Technology(req.Node)
		if err != nil {
			return cacheKey{}, err
		}
		key.node = req.Node
		key.buffer = node.Buffer()
	default:
		return cacheKey{}, fmt.Errorf("missing buffer or node")
	}
	return key, nil
}

// canonicalCorners resolves corner names to a sorted, deduplicated,
// comma-joined canonical string and the matching corner set.
func canonicalCorners(names []string) (string, []rlckit.SweepCorner, error) {
	known := map[string]rlckit.SweepCorner{}
	for _, c := range rlckit.DefaultCorners() {
		known[c.Name] = c
	}
	if len(names) == 0 {
		names = []string{"tt", "ff", "ss"}
	}
	seen := map[string]bool{}
	var canon []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if _, ok := known[n]; !ok {
			return "", nil, fmt.Errorf("unknown corner %q (have tt, ff, ss)", n)
		}
		if !seen[n] {
			seen[n] = true
			canon = append(canon, n)
		}
	}
	sort.Strings(canon)
	corners := make([]rlckit.SweepCorner, len(canon))
	for i, n := range canon {
		corners[i] = known[n]
	}
	return strings.Join(canon, ","), corners, nil
}

// parseSweepRequest decodes and validates a /v1/sweep body, enforcing
// the population-size guards.
func parseSweepRequest(r io.Reader) (SweepRequest, cacheKey, []rlckit.SweepCorner, error) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, cacheKey{}, nil, err
	}
	if req.Node == "" {
		return req, cacheKey{}, nil, fmt.Errorf("missing node")
	}
	if _, err := rlckit.Technology(req.Node); err != nil {
		return req, cacheKey{}, nil, err
	}
	if req.Nets < 1 || req.Nets > maxSweepNets {
		return req, cacheKey{}, nil, fmt.Errorf("nets must be in [1, %d], got %d", maxSweepNets, req.Nets)
	}
	if req.Samples < 0 || req.Samples > maxSweepSamples {
		return req, cacheKey{}, nil, fmt.Errorf("samples must be in [0, %d], got %d", maxSweepSamples, req.Samples)
	}
	if req.RiseS <= 0 {
		return req, cacheKey{}, nil, fmt.Errorf("rise_s must be positive, got %g", req.RiseS)
	}
	if req.Sigma < 0 || req.Sigma > 2 || req.DriveSigma < 0 || req.DriveSigma > 2 {
		return req, cacheKey{}, nil, fmt.Errorf("sigmas must be in [0, 2], got %g and %g", req.Sigma, req.DriveSigma)
	}
	est, err := parseEnum("estimator", req.Estimator, sweepEstimators)
	if err != nil {
		return req, cacheKey{}, nil, err
	}
	canon, corners, err := canonicalCorners(req.Corners)
	if err != nil {
		return req, cacheKey{}, nil, err
	}
	draws := req.Samples
	if draws < 1 {
		draws = 1
	}
	if total := req.Nets * len(corners) * draws; total > maxSweepTotal {
		return req, cacheKey{}, nil, fmt.Errorf("nets × corners × samples = %d exceeds the %d-sample limit", total, maxSweepTotal)
	}
	key := cacheKey{
		kind: kindSweep, method: uint8(est), node: req.Node, nets: req.Nets, seed: req.Seed,
		samples: draws, rise: req.RiseS, sigma: req.Sigma, drvSig: req.DriveSigma,
		corners: canon, repeat: req.Repeaters,
	}
	return req, key, corners, nil
}

// parseSessionEditRequest decodes and validates a /v1/session/{id}/edit
// body: strict JSON, and the batch size capped at maxSessionEdits so a
// hostile body can neither balloon the journal nor occupy the session
// lock for an unbounded apply-and-rollback walk. The edits themselves
// are validated downstream by Session.Apply (the batch is atomic: on
// the first invalid edit nothing is applied).
func parseSessionEditRequest(r io.Reader) (SessionEditRequest, error) {
	var req SessionEditRequest
	if err := decodeStrict(r, &req); err != nil {
		return req, err
	}
	if len(req.Edits) > maxSessionEdits {
		return req, fmt.Errorf("edit batch has %d edits, limit %d", len(req.Edits), maxSessionEdits)
	}
	return req, nil
}

func summaryJSON(s rlckit.SweepSummary) SummaryJSON {
	return SummaryJSON{
		N: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean, StdDev: s.StdDev,
		P5: s.P5, P25: s.P25, Median: s.Median, P75: s.P75, P95: s.P95, P99: s.P99,
	}
}
