package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"rlckit"
	"rlckit/internal/netgen"
	"rlckit/internal/pool"
	"rlckit/internal/serve"
)

// request is one HTTP request of a workload stream.
type request struct {
	method string
	// path is empty for a churn close: the session's ID is known only
	// once its open has been answered.
	path string
	body []byte
	// kind is the traffic class, endpoint plus engine ("delay.eq9",
	// "tree.mna", "session.edit.reduced", ...). It selects the reference
	// tolerance and groups the per-class statistics.
	kind string
	// Requests that share a key (one what-if session) are sent one at a
	// time in stream order, seq giving each one's place: a session's
	// state depends on the order its edits arrive in, and the reference
	// replays them in that order.
	key, seq int
	// churn indexes the short-lived session a session.open or
	// session.close belongs to (-1 for every other request).
	churn int
	// samples is the Monte Carlo sample count a sweep computes.
	samples int
}

// workload is one traffic mix with the rates and limits fixed for it.
type workload struct {
	name string
	// rate is the open-phase arrival rate of the workload's own traffic
	// (req/s, probes excluded): about half the capacity_rps measured on
	// the commit that introduced the benchmark. Later changes keep it.
	rate float64
	// limit is the latency limit behind slo_ok_frac.
	limit time.Duration
	// tailQ is the fixed percentile reported as tail_ms.
	tailQ float64
	// store runs the daemon with -store-dir, primed by a prep daemon.
	store bool
	// sampleN requests, drawn from the first sampleM of the stream, are
	// checked byte-for-byte against the in-process reference.
	sampleN, sampleM int
	// replayN stream requests are replayed by the traced run.
	replayN int
	stream  func(seed int64) *stream
}

// stream is a workload's seeded request sequence. prep, when set, is
// sent serially to a prep daemon whose store the timed daemon boots on.
type stream struct {
	next func() *request
	prep []*request
}

const (
	// probeRate is the fixed probe stream every workload carries:
	// fresh-key eq9 delay requests, excluded from p50_ms and tail_ms.
	probeRate = 200.0
	// probeKind is the kind of every probe request.
	probeKind = "probe"
)

// workloads is the benchmark's fixed set of traffic mixes.
var workloads = []*workload{
	{
		name: "line-mix", rate: 1500, limit: 10 * time.Millisecond, tailQ: 0.99,
		sampleN: 200, sampleM: 4000, replayN: 3000, stream: lineMixStream,
	},
	{
		name: "tree-cold", rate: 20, limit: 500 * time.Millisecond, tailQ: 0.95,
		sampleN: 60, sampleM: 200, replayN: 80, stream: treeColdStream,
	},
	{
		name: "session-edit", rate: 100, limit: 100 * time.Millisecond, tailQ: 0.99, store: true,
		sampleN: 120, sampleM: 300, replayN: 100, stream: sessionEditStream,
	},
	{
		name: "sweep-batch", rate: 35, limit: 5 * time.Second, tailQ: 0.95,
		sampleN: 40, sampleM: 80, replayN: 20, stream: sweepBatchStream,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, names)
}

// Sub-stream identifiers: every random decision of a run derives from
// (seed, sub-stream) through pool.Seed, so the request bodies do not
// depend on the run length and the arrival times do not depend on the
// bodies.
const (
	subMain int64 = iota + 1
	subProbe
	subArrivals
	subProbeArrivals
	subNets
	subPrep
	subChurn
	subSample
)

func newRand(seed int64, sub ...int64) *rand.Rand {
	return rand.New(pool.NewSource(pool.Seed(seed, sub...)))
}

// block deals slots in smooth weighted round-robin order: every window
// of requests carries each slot within two requests of its weighted
// share. Short runs then see the exact traffic mix, so the mix does not
// vary from seed to seed; the seed varies the requests' values.
type block struct {
	weights, current []int
	total            int
}

func newBlock(weights ...int) *block {
	b := &block{weights: weights, current: make([]int, len(weights))}
	for _, w := range weights {
		b.total += w
	}
	return b
}

func (b *block) next() int {
	best := 0
	for i, w := range b.weights {
		b.current[i] += w
		if b.current[i] > b.current[best] {
			best = i
		}
	}
	b.current[best] -= b.total
	return best
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

func techNodes() []rlckit.TechNode {
	var nodes []rlckit.TechNode
	for _, name := range rlckit.Technologies() {
		n, err := rlckit.Technology(name)
		if err != nil {
			panic(err) // Technologies lists only known nodes
		}
		nodes = append(nodes, n)
	}
	return nodes
}

func lineSpec(ln rlckit.Line) serve.LineSpec {
	rt, lt, ct := ln.Totals()
	return serve.LineSpec{Rt: rt, Lt: lt, Ct: ct, Length: ln.Length}
}

func driveSpec(d rlckit.Drive) serve.DriveSpec {
	return serve.DriveSpec{Rtr: d.Rtr, CL: d.CL, V: d.V}
}

// line-mix: the paper's interactive query path. Keys are Zipf(1.1) over
// 20 000 seeded lines across the five technology nodes — a working set
// larger than the daemon's default 4096-entry cache.

const (
	lineNetsPerNode = 4000
	lineZipfS       = 1.1
)

// Line-mix slots per 100 requests: /v1/delay 70 (auto 60%, eq9 20%,
// exact 10%, reduced 10% of it), /v1/screen 15, /v1/repeaters 15.
const (
	slotAuto = iota
	slotEq9
	slotExact
	slotReduced
	slotScreen
	slotRepeaters
)

var lineRise = [...]float64{20e-12, 50e-12, 100e-12}

func lineMixStream(seed int64) *stream {
	nodes := techNodes()
	type lineNet struct {
		line  serve.LineSpec
		drive serve.DriveSpec
		node  rlckit.TechNode
		rise  float64
	}
	nets := make([]lineNet, 0, lineNetsPerNode*len(nodes))
	for k, node := range nodes {
		batch, err := rlckit.RandomNets(pool.Seed(seed, subNets, int64(k)), node, lineNetsPerNode)
		if err != nil {
			panic(err) // built-in nodes always generate
		}
		for j, n := range batch {
			nets = append(nets, lineNet{lineSpec(n.Line), driveSpec(n.Drive), node, lineRise[j%len(lineRise)]})
		}
	}
	rng := newRand(seed, subMain)
	rank := rng.Perm(len(nets)) // popularity rank → net
	cdf := zipfCDF(len(nets), lineZipfS)
	mix := newBlock(42, 14, 7, 7, 15, 15)
	methods := [...]string{slotAuto: "auto", slotEq9: "eq9", slotExact: "exact", slotReduced: "reduced"}
	next := func() *request {
		n := &nets[rank[sort.SearchFloat64s(cdf, rng.Float64())]]
		r := &request{method: "POST", key: -1, churn: -1}
		switch s := mix.next(); s {
		case slotScreen:
			r.path, r.kind = "/v1/screen", "screen"
			r.body = mustJSON(serve.ScreenRequest{Line: n.line, Drive: n.drive, RiseS: n.rise})
		case slotRepeaters:
			req := serve.RepeatersRequest{Line: n.line, Node: n.node.Name}
			if rng.Intn(2) == 0 {
				b := n.node.Buffer()
				req.Node, req.Buffer = "", &serve.BufferSpec{R0: b.R0, C0: b.C0, Amin: b.Amin, Vdd: b.Vdd}
			}
			if rng.Intn(2) == 0 {
				req.Model = "rc"
			}
			r.path, r.kind, r.body = "/v1/repeaters", "repeaters", mustJSON(req)
		default:
			r.path, r.kind = "/v1/delay", "delay."+methods[s]
			r.body = mustJSON(serve.DelayRequest{Line: n.line, Drive: n.drive, Method: methods[s]})
		}
		return r
	}
	return &stream{next: next}
}

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks
// 1..n, for inverse-CDF draws by binary search.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// tree-cold: every /v1/tree body is a fresh seeded tree (100% cache
// miss), so the tree engines dominate.

// Tree-cold engines are weighted closed 80% / mna 10% / reduced 10%,
// and each engine takes the tree kinds in turn, so the simulated
// requests come evenly spaced. Balanced and unbalanced trees draw their
// sink count from 8–32; clock-H trees have 16 sinks, the only power of
// four in that range.
//
// The weights put each reported percentile in a dense part of the
// latency distribution, where a few hundred requests pin it down. A
// closed-form answer takes under a millisecond, unless it waits behind
// a simulation in the micro-batcher or for a connection; the simulated
// 20% keep one of them busy about a sixth of the time. The median
// therefore falls among the unblocked closed-form answers, and the
// tail among the simulated ones, spread smoothly by the sink counts.
// With 30% simulated and evenly spaced, close to a third of the
// closed-form answers waited, and the median moved between 1 and 9 ms
// from run to run.
var (
	treeKinds   = [...]rlckit.TreeKind{rlckit.TreeKindBalanced, rlckit.TreeKindUnbalanced, rlckit.TreeKindClockH}
	treeEngines = [...]string{"closed", "mna", "reduced"}
	treeWeights = [...]int{8, 1, 1}
)

const minSinks, maxSinks = 8, 32

// treeBody renders a generated tree as the /v1/tree wire shape. The
// node capacitance on the wire is the node's own (sink load excluded).
func treeBody(tn netgen.TreeNet, engine string) serve.TreeRequest {
	t := tn.Tree
	req := serve.TreeRequest{Drive: serve.TreeDriveSpec{Rtr: tn.Drive.Rtr, V: tn.Drive.V}, Engine: engine}
	for node := 0; node < t.Len(); node++ {
		r, l, c, _ := t.Branch(node)
		load, _ := t.SinkLoad(node)
		if node == 0 {
			req.Tree.RootC = c - load
			continue
		}
		parent, _ := t.Parent(node)
		req.Tree.Branches = append(req.Tree.Branches, serve.TreeBranchSpec{Parent: parent, R: r, L: l, C: c - load})
	}
	for _, s := range t.Sinks() {
		load, _ := t.SinkLoad(s)
		req.Tree.Sinks = append(req.Tree.Sinks, serve.TreeSinkSpec{Node: s, CL: load})
	}
	return req
}

// randomTree draws a tree of the given kind. A clock-H tree has 16
// sinks: asking for more rounds up to a 64-sink H-tree whose MNA run
// costs some fifteen times the mean request. A tree whose MNA transient
// would need more steps than the engines' floor of stepFloor is
// redrawn. About one random tree in twelve has a sink so much faster
// than its slowest that its transient needs more steps: up to four
// times as many, and up to 130 times (seconds and hundreds of MB) for
// one tree in a hundred. Those few trees decided a run's tail: with 32
// session trees, a seed that drew one such tree had twice the p99 of a
// seed that drew none.
func randomTree(rng *rand.Rand, node rlckit.TechNode, kind rlckit.TreeKind, sinks int) netgen.TreeNet {
	if kind == rlckit.TreeKindClockH {
		sinks = 16
	}
	for {
		tn, err := netgen.RandomTree(rng, node, kind, sinks)
		if err != nil {
			panic(err) // sink counts and kinds here are always valid
		}
		if transientSteps(tn.Tree, tn.Drive) <= stepFloor {
			return tn
		}
	}
}

// stepFloor is the tree engines' default step count per transient.
const stepFloor = 3000

// transientSteps estimates the step count of a tree's MNA transient as
// rlctree plans it from the closed-form table: the settling horizon
// 4·(largest Elmore delay) + 8·(slowest sink delay), resolved at a
// thirtieth of half the fastest sink delay, and at least stepFloor
// steps.
func transientSteps(t *rlckit.RLCTree, d rlckit.TreeDrive) float64 {
	res, err := rlckit.AnalyzeTree(t, d, rlckit.TreeConfig{})
	if err != nil {
		return math.Inf(1)
	}
	elmore, slow, fast := 0.0, 0.0, math.Inf(1)
	for _, s := range res.Sinks {
		elmore = math.Max(elmore, -s.M1)
		if s.DelayClosed > 0 {
			slow, fast = math.Max(slow, s.DelayClosed), math.Min(fast, s.DelayClosed)
		}
	}
	return math.Max(stepFloor, 30*(4*elmore+8*slow)/(fast/2))
}

func treeColdStream(seed int64) *stream {
	nodes := techNodes()
	rng := newRand(seed, subMain)
	mix := newBlock(treeWeights[:]...)
	kindTurn := make([]int, len(treeEngines))
	nodeOf := rotation(len(nodes), len(treeEngines)*len(treeKinds))
	next := func() *request {
		e := mix.next()
		k := kindTurn[e] % len(treeKinds)
		kindTurn[e]++
		kind, engine := treeKinds[k], treeEngines[e]
		tn := randomTree(rng, nodes[nodeOf(e*len(treeKinds)+k)], kind, minSinks+rng.Intn(maxSinks-minSinks+1))
		return &request{
			method: "POST", path: "/v1/tree", kind: "tree." + engine, key: -1, churn: -1,
			body: mustJSON(treeBody(tn, engine)),
		}
	}
	return &stream{next: next}
}

// rotation cycles each traffic cell through the technology nodes in
// turn (cells start staggered), so every node carries its share of each
// cell however short the run.
func rotation(nodes, cells int) func(cell int) int {
	seen := make([]int, cells)
	return func(cell int) int {
		seen[cell]++
		return (cell + seen[cell]) % nodes
	}
}

// session-edit: what-if sessions recovered from a store written by a
// prep daemon, then edited and read under load.

// The prep daemon opens sessCount sessions and applies prepBatches
// edit batches to each. Many small sessions rather than a few long ones:
// a session's read cost follows its tree's stiffness, so with a handful
// of sessions the trees a seed happens to draw would decide the run.
const (
	sessCount   = 32
	prepBatches = 50
)

// Session-edit slots per 20 requests: 17 edit batches, 1 open/close
// churn, 2 warm /v1/tree repeats. Read engines per 50 edits: closed 40,
// reduced 9, mna 1. The engine is dealt first, so the simulated reads
// come evenly spaced, and each engine takes the sessions in turn, so
// every session sees every engine in proportion. Dealt as session ×
// engine cells, the 32 equal-weight reduced cells came in one burst.
const (
	slotEdit = iota
	slotChurn
	slotWarmTree
)

var (
	readEngines = [...]string{"closed", "reduced", "mna"}
	readWeights = [...]int{40, 9, 1}
)

func sessionEditStream(seed int64) *stream {
	nodes := techNodes()
	prng := newRand(seed, subPrep)
	trees := make([]serve.TreeRequest, sessCount)
	// Shapes follow the session index, values the seed, so every seed
	// runs sessions of the same sizes.
	for k := range trees {
		trees[k] = treeBody(randomTree(prng, nodes[k%len(nodes)], treeKinds[k%len(treeKinds)], 16+16*k/(sessCount-1)), "")
	}
	states := make([]serve.TreeRequest, len(trees)) // the trees as edited so far
	var prep []*request
	for k := range trees {
		states[k] = trees[k]
		prep = append(prep, &request{method: "POST", path: "/v1/session", kind: "session.open", key: -1, churn: -1, body: mustJSON(trees[k])})
	}
	for range prepBatches {
		for k := range trees {
			prep = append(prep, editRequest(prng, k, &trees[k], &states[k], ""))
		}
	}
	warm := make([][]byte, len(trees))
	for k := range trees {
		t := trees[k]
		t.Engine = "reduced"
		warm[k] = mustJSON(t)
		prep = append(prep, &request{method: "POST", path: "/v1/tree", kind: "tree.warm", key: -1, churn: -1, body: warm[k]})
	}

	rng := newRand(seed, subMain)
	crng := newRand(seed, subChurn)
	mix := newBlock(17, 1, 2)
	reads := newBlock(readWeights[:]...)
	sessTurn := make([]int, len(readEngines))
	seqs := make(map[int]int)
	keyed := func(r *request, key int) *request {
		r.key, r.seq = key, seqs[key]
		seqs[key]++
		return r
	}
	type pending struct{ at, churn int }
	var closes []pending
	i, churns := 0, 0
	next := func() *request {
		defer func() { i++ }()
		for j, c := range closes {
			if c.at <= i {
				closes = append(closes[:j], closes[j+1:]...)
				return keyed(&request{method: "DELETE", kind: "session.close", churn: c.churn}, sessCount+c.churn)
			}
		}
		switch mix.next() {
		case slotChurn:
			c := churns
			churns++
			tn := randomTree(crng, nodes[c%len(nodes)], treeKinds[c%len(treeKinds)], 16+crng.Intn(17))
			closes = append(closes, pending{at: i + 1 + crng.Intn(4), churn: c})
			return keyed(&request{method: "POST", path: "/v1/session", kind: "session.open", churn: c, body: mustJSON(treeBody(tn, ""))}, sessCount+c)
		case slotWarmTree:
			return &request{method: "POST", path: "/v1/tree", kind: "tree.warm", key: -1, churn: -1, body: warm[rng.Intn(len(warm))]}
		default:
			e := reads.next()
			k := sessTurn[e] % sessCount
			sessTurn[e]++
			return keyed(editRequest(rng, k, &trees[k], &states[k], readEngines[e]), k)
		}
	}
	return &stream{next: next, prep: prep}
}

// editRequest draws a batch of 1–8 value edits for session k (the
// session IDs s1, s2, ... follow the prep daemon's serial opens) and
// applies it to state, the session's tree as edited so far. Every edit
// sets a value within ×[0.8, 1.25) of the session's original tree orig
// — what-if sized — so any two states of a session stay within the ×2
// envelope the reduced engine freezes its basis for, and no edit
// changes the circuit's structure.
//
// A batch that would leave the session's MNA transient above the step
// floor is redrawn, as randomTree redraws a stiff tree. Without the
// check, 3 of 384 sessions (twelve seeds of 3000 requests) drifted to
// a state in which one sink's closed-form delay was an eighth of its
// Elmore delay, and the transient needed up to 44 times the floor's
// steps. That session's reads took 150–300 ms, and its seed's p99 was
// 140–200 ms where the other seeds' was 55–60 ms.
func editRequest(rng *rand.Rand, k int, orig, state *serve.TreeRequest, engine string) *request {
	factor := func() float64 { return math.Exp((2*rng.Float64() - 1) * math.Log(1.25)) }
	var edits []rlckit.SessionEdit
	for {
		edits = make([]rlckit.SessionEdit, 1+rng.Intn(8))
		for j := range edits {
			switch rng.Intn(3) {
			case 0:
				node := 1 + rng.Intn(len(orig.Tree.Branches))
				br := orig.Tree.Branches[node-1]
				edits[j] = rlckit.SessionEdit{Op: rlckit.SessionOpBranch, Node: node, R: br.R * factor(), L: br.L * factor()}
			case 1:
				s := orig.Tree.Sinks[rng.Intn(len(orig.Tree.Sinks))]
				edits[j] = rlckit.SessionEdit{Op: rlckit.SessionOpLoad, Node: s.Node, CL: s.CL * factor()}
			default:
				edits[j] = rlckit.SessionEdit{Op: rlckit.SessionOpDriver, Rtr: orig.Drive.Rtr * factor(), V: orig.Drive.V}
			}
		}
		next := applyEdits(*state, edits)
		t, d, err := buildTree(&next)
		if err != nil {
			panic(err) // edits keep every value positive
		}
		if transientSteps(t, d) <= stepFloor {
			*state = next
			break
		}
	}
	kind := "session.edit.closed"
	if engine != "" {
		kind = "session.edit." + engine
	}
	return &request{
		method: "POST", path: fmt.Sprintf("/v1/session/s%d/edit", k+1), kind: kind, key: -1, churn: -1,
		body: mustJSON(serve.SessionEditRequest{Edits: edits, Engine: engine}),
	}
}

// applyEdits returns t with the edits applied, as a session applies
// them; t's own slices are left as they were.
func applyEdits(t serve.TreeRequest, edits []rlckit.SessionEdit) serve.TreeRequest {
	t.Tree.Branches = slices.Clone(t.Tree.Branches)
	t.Tree.Sinks = slices.Clone(t.Tree.Sinks)
	for _, e := range edits {
		switch e.Op {
		case rlckit.SessionOpBranch:
			t.Tree.Branches[e.Node-1].R, t.Tree.Branches[e.Node-1].L = e.R, e.L
		case rlckit.SessionOpLoad:
			for i := range t.Tree.Sinks {
				if t.Tree.Sinks[i].Node == e.Node {
					t.Tree.Sinks[i].CL = e.CL
				}
			}
		default:
			t.Drive.Rtr, t.Drive.V = e.Rtr, e.V
		}
	}
	return t
}

// sweep-batch: seeded Monte Carlo sweeps, a fresh seed every request so
// none is ever cached.

// sweepShape is one sweep class: the estimator, the mean population
// (each request draws its net count uniformly from ×[0.5, 1.5] of it,
// so request costs spread smoothly instead of in a few fixed steps),
// the Monte Carlo samples per net and corner, and its weight per 20
// requests.
type sweepShape struct {
	estimator      string
	nets, samples  int
	repeaters      bool
	slotsPerTwenty int
}

// The closed form takes 80% of the sweeps, smart 10%, reduced and
// simulated 5% each, so the median falls among closed-form sweeps that
// ran alone. A sweep fills both pool workers, so one that overlaps
// another takes about twice as long. With 60% closed form and the
// sweeps twice these sizes, the pool was busy two fifths of the time,
// the median fell among the overlapped ones, and it moved by a quarter
// from run to run.
var sweepShapes = [...]sweepShape{
	{"closed", 250, 4, true, 8},
	{"closed", 250, 4, false, 8},
	{"smart", 50, 2, false, 2},
	{"reduced", 1, 16, false, 1},
	{"simulated", 2, 4, false, 1},
}

const sweepCorners = 3 // every sweep runs the default tt/ff/ss corners

func sweepBatchStream(seed int64) *stream {
	nodes := techNodes()
	rng := newRand(seed, subMain)
	counts := make([]int, len(sweepShapes))
	for i, s := range sweepShapes {
		counts[i] = s.slotsPerTwenty
	}
	mix := newBlock(counts...)
	nodeOf := rotation(len(nodes), len(sweepShapes))
	next := func() *request {
		shape := mix.next()
		s := sweepShapes[shape]
		nets := max(1, s.nets/2+rng.Intn(s.nets+1))
		req := serve.SweepRequest{
			Node: nodes[nodeOf(shape)].Name, Nets: nets, Seed: rng.Int63n(1 << 48),
			RiseS: 50e-12, Samples: s.samples, Sigma: 0.1, DriveSigma: 0.1,
			Repeaters: s.repeaters, Estimator: s.estimator,
		}
		return &request{
			method: "POST", path: "/v1/sweep", kind: "sweep." + s.estimator, key: -1, churn: -1,
			body: mustJSON(req), samples: nets * sweepCorners * s.samples,
		}
	}
	return &stream{next: next}
}

// probeStream returns the probe generator: fresh random nets, eq9.
func probeStream(seed int64) func() *request {
	nodes := techNodes()
	rng := newRand(seed, subProbe)
	return func() *request {
		n, err := netgen.RandomNet(rng, nodes[rng.Intn(len(nodes))])
		if err != nil {
			panic(err) // built-in nodes always generate
		}
		return &request{
			method: "POST", path: "/v1/delay", kind: probeKind, key: -1, churn: -1,
			body: mustJSON(serve.DelayRequest{Line: lineSpec(n.Line), Drive: driveSpec(n.Drive), Method: "eq9"}),
		}
	}
}

// item is one scheduled request of the open-loop phases.
type item struct {
	at    time.Duration // due time, from the start of the warm-up
	req   *request
	probe bool
	idx   int // stream index, or probe index for probes
}

// schedule builds the open-loop schedule of the warm-up and open phases:
// seeded Poisson arrivals of the workload's stream at w.rate and of the
// probe stream at probeRate, merged by due time. Stream requests are
// drawn in arrival order, so stream index i is the same request in
// every run of the seed whatever its length.
func schedule(w *workload, seed int64, st *stream, span time.Duration) []item {
	main := poisson(newRand(seed, subArrivals), w.rate, span)
	probes := poisson(newRand(seed, subProbeArrivals), probeRate, span)
	nextProbe := probeStream(seed)
	items := make([]item, 0, len(main)+len(probes))
	i, j := 0, 0
	for i < len(main) || j < len(probes) {
		if j == len(probes) || (i < len(main) && main[i] <= probes[j]) {
			items = append(items, item{at: main[i], req: st.next(), idx: i})
			i++
		} else {
			items = append(items, item{at: probes[j], req: nextProbe(), probe: true, idx: j})
			j++
		}
	}
	return items
}

// poisson returns the arrival offsets of a Poisson process of the given
// rate over [0, span).
func poisson(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}

// sampleIndices returns the sorted stream indices checked against the
// reference: w.sampleN of the first w.sampleM, seeded.
func sampleIndices(w *workload, seed int64) []int {
	idx := newRand(seed, subSample).Perm(w.sampleM)[:w.sampleN]
	sort.Ints(idx)
	return idx
}

// buildTree builds the tree of a /v1/tree or /v1/session body with the
// calls the serving layer's decoder makes.
func buildTree(req *serve.TreeRequest) (*rlckit.RLCTree, rlckit.TreeDrive, error) {
	t, err := rlckit.NewTree(req.Tree.RootC)
	if err != nil {
		return nil, rlckit.TreeDrive{}, err
	}
	for i, br := range req.Tree.Branches {
		if _, err := t.Add(br.Parent, br.R, br.L, br.C); err != nil {
			return nil, rlckit.TreeDrive{}, fmt.Errorf("branch %d: %w", i, err)
		}
	}
	for i, s := range req.Tree.Sinks {
		if err := t.MarkSink(s.Node, s.CL); err != nil {
			return nil, rlckit.TreeDrive{}, fmt.Errorf("sink %d: %w", i, err)
		}
	}
	drv := rlckit.TreeDrive{Rtr: req.Drive.Rtr, V: req.Drive.V}
	return t, drv, drv.Validate()
}
