package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"rlckit"
	"rlckit/internal/cache"
	"rlckit/internal/serve"
	"rlckit/internal/store"
)

// The traced run replays a workload's stream serially in-process, with
// no daemon, calling each layer's public functions in the order the
// serving layer's handlers call them and wrapping a span around each
// call. The spans are the harness's own: tracing inside the program is
// a separate change.

// pencilMap is the replay's reduced-model pencil store.
type pencilMap struct {
	mu           sync.Mutex
	m            map[string][]byte
	hits, builds int
}

func (p *pencilMap) GetPencil(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.m[key]
	if ok {
		p.hits++
	}
	return v, ok
}

func (p *pencilMap) PutPencil(key string, pencil []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.builds++
	p.m[key] = append([]byte(nil), pencil...)
}

// journalRecord mirrors the serving layer's session journal record.
type journalRecord struct {
	Op    string               `json:"op"`
	ID    string               `json:"id"`
	Body  json.RawMessage      `json:"body,omitempty"`
	Edits []rlckit.SessionEdit `json:"edits,omitempty"`
}

// replayCounts are the engine-selection outcomes the replay observed.
type replayCounts struct {
	reduced, fallbacks         int // reduced delay and tree analyses, and their exact fallbacks
	sessReduced, sessFallbacks int // reduced session reads, and their fallbacks
	sweepReduced, sweepFalls   int // reduced sweep samples, and their fallbacks
	sweepSamples               map[string]int
}

type replaySession struct {
	s      *rlckit.Session
	engine string
}

// replayer holds the state a serial replay threads through the layers:
// the response cache, the pencil store, the open sessions and two
// journals (appends without and with fsync).
type replayer struct {
	tr       *tracer
	cache    *cache.Cache[string, []byte]
	pencils  *pencilMap
	sessions map[string]*replaySession
	churnIDs map[int]string
	nextID   int
	dir      string
	journal  *store.Store
	synced   *store.Store
	counts   replayCounts
}

func newReplayer(tr *tracer, dir string) (*replayer, error) {
	journal, err := store.Open(dir+"/journal", store.Options{Version: 1})
	if err != nil {
		return nil, err
	}
	synced, err := store.Open(dir+"/journal-sync", store.Options{Version: 1, Sync: true})
	if err != nil {
		journal.Close()
		return nil, err
	}
	return &replayer{
		tr:       tr,
		cache:    cache.New[string, []byte](serve.DefaultCacheEntries),
		pencils:  &pencilMap{m: make(map[string][]byte)},
		sessions: make(map[string]*replaySession),
		churnIDs: make(map[int]string),
		dir:      dir,
		journal:  journal,
		synced:   synced,
		counts:   replayCounts{sweepSamples: make(map[string]int)},
	}, nil
}

func (rp *replayer) close() {
	rp.journal.Close()
	rp.synced.Close()
}

// call runs fn inside a span.
func (rp *replayer) call(name string, fn func() error) error {
	id := rp.tr.begin(name)
	err := fn()
	rp.tr.end(id)
	return err
}

// do replays one request under a root span "request".
func (rp *replayer) do(q *request) error {
	root := rp.tr.begin("request")
	defer rp.tr.end(root)
	var err error
	switch {
	case q.kind == "session.open":
		err = rp.sessionOpen(q)
	case q.kind == "session.close":
		err = rp.sessionClose(q)
	case strings.HasSuffix(q.path, "/edit"):
		err = rp.sessionEdit(q)
	case q.path == "/v1/tree":
		err = rp.tree(q)
	case q.path == "/v1/sweep":
		err = rp.sweep(q)
	default:
		err = rp.line(q)
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", q.kind, err)
	}
	return nil
}

func (rp *replayer) get(key string) bool {
	var hit bool
	_ = rp.call("cache.get", func() error { _, hit = rp.cache.Get(key); return nil })
	return hit
}

// finish encodes a response and caches it, as the handlers' miss path
// does.
func (rp *replayer) finish(key string, resp any) error {
	var body []byte
	if err := rp.call("encode", func() (err error) { body, err = json.Marshal(resp); return err }); err != nil {
		return err
	}
	return rp.call("cache.put", func() error { rp.cache.Put(key, body); return nil })
}

// line replays /v1/delay, /v1/screen and /v1/repeaters.
func (rp *replayer) line(q *request) error {
	var (
		line  serve.LineSpec
		drive serve.DriveSpec
		delay serve.DelayRequest
		scr   serve.ScreenRequest
		rep   serve.RepeatersRequest
		ln    rlckit.Line
		drv   rlckit.Drive
		key   string
	)
	if err := rp.call("decode", func() error {
		var v any
		switch q.path {
		case "/v1/delay":
			v = &delay
		case "/v1/screen":
			v = &scr
		default:
			v = &rep
		}
		if err := json.Unmarshal(q.body, v); err != nil {
			return err
		}
		switch q.path {
		case "/v1/delay":
			line, drive = delay.Line, delay.Drive
		case "/v1/screen":
			line, drive = scr.Line, scr.Drive
		default:
			line = rep.Line
		}
		ln = rlckit.LineFromTotals(line.Rt, line.Lt, line.Ct, line.Length)
		drv = rlckit.Drive{Rtr: drive.Rtr, CL: drive.CL, V: drive.V}
		key = q.path + string(mustJSON(v))
		return errors.Join(ln.Validate(), drv.Validate())
	}); err != nil {
		return err
	}
	if rp.get(key) {
		return nil
	}
	var resp any
	var name string
	var compute func() error
	switch q.path {
	case "/v1/delay":
		method := delay.Method
		if method == "" {
			method = "auto"
		}
		name = "engine.delay_" + method
		compute = func() error {
			r, err := rp.delay(method, ln, drv)
			resp = r
			return err
		}
	case "/v1/screen":
		name = "engine.screen"
		compute = func() error {
			res, err := rlckit.NeedsInductance(ln, drv, scr.RiseS)
			resp = serve.ScreenResponse{
				NeedsRLC: res.NeedsRLC, InWindow: res.InWindow, Underdamped: res.Underdamped,
				LMinM: res.LMin, LMaxM: res.LMax, Zeta: res.Zeta,
			}
			return err
		}
	default:
		name = "engine.repeaters"
		compute = func() error {
			r, err := repeaters(&rep, ln)
			resp = r
			return err
		}
	}
	if err := rp.call(name, compute); err != nil {
		return err
	}
	return rp.finish(key, resp)
}

// delay mirrors the /v1/delay miss path, exact fallback included.
func (rp *replayer) delay(method string, ln rlckit.Line, drv rlckit.Drive) (serve.DelayResponse, error) {
	var resp serve.DelayResponse
	p, err := rlckit.Analyze(ln, drv)
	if err != nil {
		return resp, err
	}
	resp.RT, resp.CT, resp.Zeta, resp.OmegaN = p.RT, p.CT, p.Zeta, p.OmegaN
	resp.Method = method
	switch method {
	case "eq9":
		resp.DelayS, err = rlckit.Delay(ln, drv)
	case "exact":
		resp.DelayS, err = rlckit.DelaySimulated(ln, drv)
	case "reduced":
		var info rlckit.MORInfo
		rp.counts.reduced++
		if resp.DelayS, info, err = rlckit.DelayReduced(ln, drv); err == nil {
			resp.MORQ, resp.MORN, resp.MORErrPct = info.Q, info.N, info.EstErrPct
		} else {
			rp.counts.fallbacks++
			resp.Method, resp.MORFallback = "exact", true
			resp.DelayS, err = rlckit.DelaySimulated(ln, drv)
		}
	default:
		var eq9 bool
		resp.DelayS, eq9, err = rlckit.DelayAuto(ln, drv)
		resp.Method = "exact"
		if eq9 {
			resp.Method = "eq9"
		}
	}
	if err != nil {
		return resp, err
	}
	resp.DelayRCS = rlckit.DelayRCOnly(ln, drv)
	resp.RCErrPct = 100 * (resp.DelayRCS - resp.DelayS) / resp.DelayS
	return resp, nil
}

func repeaters(req *serve.RepeatersRequest, ln rlckit.Line) (serve.RepeatersResponse, error) {
	var buf rlckit.Buffer
	if req.Buffer != nil {
		buf = rlckit.Buffer{R0: req.Buffer.R0, C0: req.Buffer.C0, Amin: req.Buffer.Amin, Vdd: req.Buffer.Vdd}
	} else {
		node, err := rlckit.Technology(req.Node)
		if err != nil {
			return serve.RepeatersResponse{}, err
		}
		buf = node.Buffer()
	}
	design, model := rlckit.DesignRepeaters, "rlc"
	if req.Model == "rc" {
		design, model = rlckit.DesignRepeatersRC, "rc"
	}
	plan, err := design(ln, buf)
	if err != nil {
		return serve.RepeatersResponse{}, err
	}
	return serve.RepeatersResponse{
		Model: model, H: plan.H, K: plan.K, KInt: plan.KInt, HForKInt: plan.HForKInt,
		TLR: plan.TLR, TotalDelayS: plan.TotalDelay, TotalDelayInt: plan.TotalDelayInt,
		Area: plan.Area, AreaInt: plan.AreaInt, SwitchEnergyJ: plan.SwitchEnergy,
	}, nil
}

var treeEngineOf = map[string]rlckit.TreeEngine{
	"": rlckit.TreeEngineClosed, "closed": rlckit.TreeEngineClosed,
	"mna": rlckit.TreeEngineMNA, "reduced": rlckit.TreeEngineReduced,
}

// decodeTree decodes a tree body and builds the tree, inside the
// decode.tree span, as the serving layer's decoder does.
func (rp *replayer) decodeTree(q *request, req *serve.TreeRequest, key *string) (*rlckit.RLCTree, rlckit.TreeDrive, error) {
	var t *rlckit.RLCTree
	var drv rlckit.TreeDrive
	err := rp.call("decode.tree", func() error {
		if err := json.Unmarshal(q.body, req); err != nil {
			return err
		}
		var err error
		if t, drv, err = buildTree(req); err != nil {
			return err
		}
		if key != nil {
			*key = q.path + string(mustJSON(req))
		}
		return nil
	})
	return t, drv, err
}

func (rp *replayer) tree(q *request) error {
	var req serve.TreeRequest
	var key string
	t, drv, err := rp.decodeTree(q, &req, &key)
	if err != nil {
		return err
	}
	if rp.get(key) {
		return nil
	}
	engine := req.Engine
	if engine == "" {
		engine = "closed"
	}
	var res *rlckit.TreeResult
	if err := rp.call("engine.tree_"+engine, func() (err error) {
		res, err = rlckit.AnalyzeTree(t, drv, rlckit.TreeConfig{Engine: treeEngineOf[engine], Pencils: rp.pencils})
		return err
	}); err != nil {
		return err
	}
	if engine == "reduced" {
		rp.counts.reduced++
		if res.Fallback {
			rp.counts.fallbacks++
		}
	}
	return rp.finish(key, treeResponse(res))
}

// treeResponse renders a tree analysis in the /v1/tree response shape.
func treeResponse(res *rlckit.TreeResult) serve.TreeResponse {
	resp := serve.TreeResponse{
		Engine: res.Engine.String(), MinDelayS: res.MinDelay, MaxDelayS: res.MaxDelay,
		MaxSkewS: res.MaxSkew, MaxSkewRCS: res.MaxSkewRC, SkewErrPct: res.SkewErrPct,
		MORFallback: res.Fallback,
	}
	if res.Reduced {
		resp.MORQ, resp.MORN, resp.MORErrPct = res.MORInfo.Q, res.MORInfo.N, res.MORInfo.EstErrPct
	}
	for _, sk := range res.Sinks {
		row := serve.TreeSinkJSON{Node: sk.Node, DelayS: sk.Delay, DelayRCS: sk.DelayRC, Zeta: sk.Zeta, OmegaN: sk.OmegaN, InDomain: sk.InDomain}
		if !isFinite(row.Zeta) || !isFinite(row.OmegaN) {
			row.Zeta, row.OmegaN = 0, 0
		}
		resp.Sinks = append(resp.Sinks, row)
	}
	return resp
}

var sweepEstimators = map[string]rlckit.SweepEstimator{
	"": rlckit.SweepEstimatorClosed, "closed": rlckit.SweepEstimatorClosed,
	"smart": rlckit.SweepEstimatorSmart, "simulated": rlckit.SweepEstimatorSimulated,
	"reduced": rlckit.SweepEstimatorReduced,
}

func (rp *replayer) sweep(q *request) error {
	var req serve.SweepRequest
	var key string
	if err := rp.call("decode", func() error {
		err := json.Unmarshal(q.body, &req)
		key = q.path + string(mustJSON(req))
		return err
	}); err != nil {
		return err
	}
	if rp.get(key) {
		return nil
	}
	var (
		node rlckit.TechNode
		nets []rlckit.Net
		res  *rlckit.SweepResult
	)
	if err := rp.call("netgen.random_nets", func() (err error) {
		if node, err = rlckit.Technology(req.Node); err != nil {
			return err
		}
		nets, err = rlckit.RandomNets(req.Seed, node, req.Nets)
		return err
	}); err != nil {
		return err
	}
	if err := rp.call("sweep.run."+req.Estimator, func() (err error) {
		cfg := rlckit.SweepConfig{
			RiseTime: req.RiseS,
			Corners:  rlckit.DefaultCorners(),
			MC: rlckit.SweepMonteCarlo{
				Samples: req.Samples, Seed: req.Seed,
				RSigma: req.Sigma, LSigma: req.Sigma, CSigma: req.Sigma, DriveSigma: req.DriveSigma,
			},
			Estimator: sweepEstimators[req.Estimator],
		}
		if req.Repeaters {
			b := node.Buffer()
			cfg.Buffer = &b
		}
		res, err = rlckit.SweepDelays(nets, cfg)
		return err
	}); err != nil {
		return err
	}
	rp.counts.sweepSamples[req.Estimator] += len(res.Samples)
	rp.counts.sweepReduced += res.ReducedSamples
	rp.counts.sweepFalls += res.ReducedFallbacks
	return rp.finish(key, serve.SweepResponse{
		Nets: len(res.NetNames), Draws: res.Draws, Samples: len(res.Samples), Estimator: req.Estimator,
		Delay: summaryJSON(res.Delay), DelayRC: summaryJSON(res.DelayRC),
		RCErr: summaryJSON(res.RCErr), AbsRCErr: summaryJSON(res.AbsRCErr),
		FracErrOver10: res.FracErrOver10, FracErrOver20: res.FracErrOver20,
	})
}

func summaryJSON(s rlckit.SweepSummary) serve.SummaryJSON {
	return serve.SummaryJSON{
		N: s.N, Min: s.Min, Max: s.Max, Mean: s.Mean, StdDev: s.StdDev,
		P5: s.P5, P25: s.P25, Median: s.Median, P75: s.P75, P95: s.P95, P99: s.P99,
	}
}

// appendJournal appends a session journal record to both journals.
func (rp *replayer) appendJournal(rec journalRecord) error {
	payload := mustJSON(rec)
	return errors.Join(
		rp.call("store.append", func() error { return rp.journal.Append(payload) }),
		rp.call("store.append_sync", func() error { return rp.synced.Append(payload) }),
	)
}

// result reads a session with the given engine and encodes the answer.
func (rp *replayer) result(s *rlckit.Session, engine string, envelope func(json.RawMessage) any) error {
	var res *rlckit.TreeResult
	if err := rp.call("session.result."+engine, func() (err error) {
		res, err = s.Result(context.Background(), treeEngineOf[engine])
		return err
	}); err != nil {
		return err
	}
	if engine == "reduced" {
		rp.counts.sessReduced++
		if res.Fallback {
			rp.counts.sessFallbacks++
		}
	}
	return rp.call("encode", func() error {
		inner, err := json.Marshal(treeResponse(res))
		if err != nil {
			return err
		}
		_, err = json.Marshal(envelope(inner))
		return err
	})
}

func (rp *replayer) sessionOpen(q *request) error {
	var req serve.TreeRequest
	t, drv, err := rp.decodeTree(q, &req, nil)
	if err != nil {
		return err
	}
	var s *rlckit.Session
	if err := rp.call("session.open", func() (err error) {
		s, err = rlckit.OpenSession(t, drv, rlckit.TreeConfig{Pencils: rp.pencils})
		return err
	}); err != nil {
		return err
	}
	engine := req.Engine
	if engine == "" {
		engine = "closed"
	}
	rp.nextID++
	id := fmt.Sprintf("s%d", rp.nextID)
	if err := rp.result(s, engine, func(r json.RawMessage) any {
		return serve.SessionOpenResponse{SessionID: id, Nodes: t.Len(), Result: r}
	}); err != nil {
		return err
	}
	rp.sessions[id] = &replaySession{s: s, engine: engine}
	if q.churn >= 0 {
		rp.churnIDs[q.churn] = id
	}
	return rp.appendJournal(journalRecord{Op: "open", ID: id, Body: q.body})
}

func (rp *replayer) sessionEdit(q *request) error {
	id := strings.TrimSuffix(strings.TrimPrefix(q.path, "/v1/session/"), "/edit")
	rs := rp.sessions[id]
	if rs == nil {
		return fmt.Errorf("unknown session %q", id)
	}
	var req serve.SessionEditRequest
	if err := rp.call("decode", func() error { return json.Unmarshal(q.body, &req) }); err != nil {
		return err
	}
	if err := rp.call("session.apply", func() error { return rs.s.Apply(req.Edits) }); err != nil {
		return err
	}
	if err := rp.appendJournal(journalRecord{Op: "edit", ID: id, Edits: req.Edits}); err != nil {
		return err
	}
	engine := req.Engine
	if engine == "" {
		engine = rs.engine
	}
	return rp.result(rs.s, engine, func(r json.RawMessage) any {
		return serve.SessionEditResponse{SessionID: id, Gen: rs.s.Stats().Gen, Result: r}
	})
}

func (rp *replayer) sessionClose(q *request) error {
	id := rp.churnIDs[q.churn]
	rs := rp.sessions[id]
	if rs == nil {
		return fmt.Errorf("unknown churn session %d", q.churn)
	}
	rs.s.Close()
	delete(rp.sessions, id)
	return rp.appendJournal(journalRecord{Op: "close", ID: id})
}

// snapshotAndRecover times the store's two bulk paths once: a snapshot
// of the replay's cache and pencils, then a cold recovery of that
// snapshot plus the journal, sessions rebuilt by replay.
func (rp *replayer) snapshotAndRecover() error {
	if err := rp.call("store.snapshot", func() error {
		w, err := rp.journal.BeginSnapshot()
		if err != nil {
			return err
		}
		rp.cache.Range(func(k string, v []byte) bool {
			err = w.Add(1, []byte(k), v)
			return err == nil
		})
		if err != nil {
			return err
		}
		for k, v := range rp.pencils.m {
			if err := w.Add(2, []byte(k), v); err != nil {
				return err
			}
		}
		return w.Commit()
	}); err != nil {
		return err
	}
	if err := rp.journal.Close(); err != nil {
		return err
	}
	return rp.call("store.recover", func() error {
		st, err := store.Open(rp.dir+"/journal", store.Options{Version: 1})
		if err != nil {
			return err
		}
		defer st.Close()
		warm := cache.New[string, []byte](serve.DefaultCacheEntries)
		pencils := &pencilMap{m: make(map[string][]byte)}
		if err := st.LoadSnapshot(func(ns uint8, k, v []byte) {
			if ns == 1 {
				warm.Put(string(k), append([]byte(nil), v...))
			} else {
				pencils.m[string(k)] = append([]byte(nil), v...)
			}
		}); err != nil {
			return err
		}
		sessions := make(map[string]*rlckit.Session)
		return st.ReplayJournal(func(p []byte) error {
			var rec journalRecord
			if err := json.Unmarshal(p, &rec); err != nil {
				return err
			}
			switch rec.Op {
			case "open":
				var req serve.TreeRequest
				if err := json.Unmarshal(rec.Body, &req); err != nil {
					return err
				}
				t, drv, err := buildTree(&req)
				if err != nil {
					return err
				}
				s, err := rlckit.OpenSession(t, drv, rlckit.TreeConfig{Pencils: pencils})
				if err != nil {
					return err
				}
				sessions[rec.ID] = s
			case "edit":
				if s := sessions[rec.ID]; s != nil {
					return s.Apply(rec.Edits)
				}
			case "close":
				delete(sessions, rec.ID)
			}
			return nil
		})
	})
}

// replayItems is the traced run's input: the first w.replayN stream
// requests with the probe stream interleaved at its open-loop ratio.
func replayItems(w *workload, seed int64) (*stream, []*request) {
	st := w.stream(seed)
	probe := probeStream(seed)
	var items []*request
	due := 0.0
	for range w.replayN {
		items = append(items, st.next())
		for due += probeRate / w.rate; due >= 1; due-- {
			items = append(items, probe())
		}
	}
	return st, items
}

// replayRun replays the items once, after the prep traffic (untraced),
// and returns the replayer and the time the items took.
func replayRun(st *stream, items []*request, dir string, traced bool) (*replayer, time.Duration, error) {
	tr := newTracer(false)
	rp, err := newReplayer(tr, dir)
	if err != nil {
		return nil, 0, err
	}
	defer rp.close()
	for _, q := range st.prep {
		if err := rp.do(q); err != nil {
			return nil, 0, fmt.Errorf("prep: %w", err)
		}
	}
	// Count only the replayed items.
	rp.counts = replayCounts{sweepSamples: make(map[string]int)}
	rp.pencils.hits, rp.pencils.builds = 0, 0
	tr.on = traced
	start := time.Now()
	for i, q := range items {
		tr.req = i
		if err := rp.do(q); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start)
	if len(st.prep) > 0 {
		tr.req = -1
		if err := rp.snapshotAndRecover(); err != nil {
			return nil, 0, fmt.Errorf("snapshot and recovery: %w", err)
		}
	}
	return rp, elapsed, nil
}

// handlerReplay sends the items through an in-process serve.Server
// handler, after the prep traffic, and returns each answer's handler
// time split by cache outcome (X-Cache: hit or not), in microseconds.
func handlerReplay(w *workload, st *stream, items []*request, dir string) (hit, miss []float64, err error) {
	storeDir := ""
	if w.store {
		storeDir = dir + "/handler-store"
	}
	ref, err := newRefServer(storeDir)
	if err != nil {
		return nil, nil, err
	}
	defer ref.close()
	for _, q := range st.prep {
		if rec := ref.do(q); rec.Code != 200 {
			return nil, nil, fmt.Errorf("handler replay prep %s: status %d: %.200s", q.kind, rec.Code, rec.Body)
		}
	}
	for _, q := range items {
		start := time.Now()
		rec := ref.do(q)
		us := float64(time.Since(start)) / 1e3
		if rec.Code != 200 {
			return nil, nil, fmt.Errorf("handler replay %s: status %d: %.200s", q.kind, rec.Code, rec.Body)
		}
		if rec.Header().Get("X-Cache") == "hit" {
			hit = append(hit, us)
		} else {
			miss = append(miss, us)
		}
	}
	return hit, miss, nil
}

func isFinite(v float64) bool { return v-v == 0 }

// mkdirUnder creates a fresh directory under parent.
func mkdirUnder(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, pattern)
}
