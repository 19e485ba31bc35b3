package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"

	"rlckit/internal/serve"
)

// refServer is the in-process reference: a serve.Server with the
// daemon's default configuration, driven through its HTTP handler.
type refServer struct {
	cfg      serve.Config
	srv      *serve.Server
	churnIDs map[int]string
}

func newRefServer(storeDir string) (*refServer, error) {
	cfg := serve.Config{StoreDir: storeDir}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	return &refServer{cfg: cfg, srv: srv, churnIDs: make(map[int]string)}, nil
}

// restart closes the server (its final snapshot included) and boots a
// fresh one on the same store, as the timed daemon boots on the prep
// daemon's store.
func (r *refServer) restart() error {
	r.srv.Close()
	srv, err := serve.New(r.cfg)
	if err != nil {
		return fmt.Errorf("reference server restart: %w", err)
	}
	r.srv = srv
	return nil
}

func (r *refServer) close() { r.srv.Close() }

// do serves one request. Safe for concurrent use except for churn
// requests, which the stream orders.
func (r *refServer) do(q *request) *httptest.ResponseRecorder {
	path := q.path
	if path == "" {
		path = "/v1/session/" + r.churnIDs[q.churn]
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(q.method, path, bytes.NewReader(q.body))
	req.Header.Set("Content-Type", "application/json")
	r.srv.Handler().ServeHTTP(rec, req)
	if q.kind == "session.open" && q.churn >= 0 {
		var open struct {
			SessionID string `json:"session_id"`
		}
		if json.Unmarshal(rec.Body.Bytes(), &open) == nil {
			r.churnIDs[q.churn] = open.SessionID
		}
	}
	return rec
}

// referenceRun holds the reference answers of one workload and seed.
type referenceRun struct {
	sample []int
	// reqs and bodies hold the sampled stream requests and their
	// reference bodies, index-aligned with sample.
	reqs   []*request
	bodies [][]byte
}

// reference computes the reference answers of the sampled stream
// requests. Independent requests run in parallel; a workload with a
// store replays its prep traffic, restarts on the store like the timed
// daemon does, and then replays every stream request up to the last
// sampled one in stream order, so each session sees the same edits and
// reads the daemon saw.
func reference(w *workload, seed int64, workDir string) (*referenceRun, error) {
	run := &referenceRun{sample: sampleIndices(w, seed)}
	st := w.stream(seed)
	want := make(map[int]int, len(run.sample))
	for k, i := range run.sample {
		want[i] = k
	}
	run.reqs = make([]*request, len(run.sample))
	run.bodies = make([][]byte, len(run.sample))
	last := run.sample[len(run.sample)-1]
	if !w.store {
		for i := 0; i <= last; i++ {
			r := st.next()
			if k, ok := want[i]; ok {
				run.reqs[k] = r
			}
		}
		ref, err := newRefServer("")
		if err != nil {
			return nil, err
		}
		defer ref.close()
		if err := parallel(len(run.reqs), func(k int) error {
			rec := ref.do(run.reqs[k])
			if rec.Code != 200 {
				return fmt.Errorf("reference %s #%d: status %d: %.200s", run.reqs[k].kind, run.sample[k], rec.Code, rec.Body)
			}
			run.bodies[k] = rec.Body.Bytes()
			return nil
		}); err != nil {
			return nil, err
		}
		return run, nil
	}
	dir, err := os.MkdirTemp(workDir, "ref-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ref, err := newRefServer(dir)
	if err != nil {
		return nil, err
	}
	defer func() { ref.close() }()
	for _, r := range st.prep {
		if rec := ref.do(r); rec.Code != 200 {
			return nil, fmt.Errorf("reference prep %s: status %d: %.200s", r.kind, rec.Code, rec.Body)
		}
	}
	if err := ref.restart(); err != nil {
		return nil, err
	}
	for i := 0; i <= last; i++ {
		r := st.next()
		rec := ref.do(r)
		if rec.Code != 200 {
			return nil, fmt.Errorf("reference %s #%d: status %d: %.200s", r.kind, i, rec.Code, rec.Body)
		}
		if k, ok := want[i]; ok {
			run.reqs[k], run.bodies[k] = r, rec.Body.Bytes()
		}
	}
	return run, nil
}

// parallel runs fn(0..n-1) on NumCPU goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var (
		next int
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sessionIDRe matches the session ID of a churn open or close answer:
// the daemon numbers sessions in arrival order, which concurrent churn
// opens make nondeterministic.
var sessionIDRe = regexp.MustCompile(`"session_id":"s[0-9]+"`)

func sameAnswer(r *request, got, want []byte) bool {
	if r.churn >= 0 {
		got = sessionIDRe.ReplaceAll(got, []byte(`"session_id":""`))
		want = sessionIDRe.ReplaceAll(want, []byte(`"session_id":""`))
	}
	return bytes.Equal(got, want)
}

// inexactKinds are the kinds checked within their certified tolerance
// when the bytes differ. A reduced read of a what-if session is not
// reproducible to the last bit: the incremental engine folds a batch's
// pending edits into the frozen reduced pencil in map iteration order,
// so two replays of one edit history round differently (~1e-13).
var inexactKinds = map[string]bool{"session.edit.reduced": true}

// verifyOutcomes compares every probe and every sampled stream request
// the run sent against the reference, marking mismatches as failures.
// It returns how many answers it compared, and how many of those
// matched only within their kind's tolerance.
func verifyOutcomes(seed int64, ref *referenceRun, outs []*outcome) (checked, inexact int, err error) {
	sampled := make(map[int]int, len(ref.sample))
	for k, i := range ref.sample {
		sampled[i] = k
	}
	maxProbe := -1
	for _, o := range outs {
		if o.probe && o.idx > maxProbe {
			maxProbe = o.idx
		}
	}
	probes := make([]*request, maxProbe+1)
	next := probeStream(seed)
	for i := range probes {
		probes[i] = next()
	}
	probeRef := make([][]byte, len(probes))
	srv, err := newRefServer("")
	if err != nil {
		return 0, 0, err
	}
	defer srv.close()
	if err := parallel(len(probes), func(i int) error {
		rec := srv.do(probes[i])
		if rec.Code != 200 {
			return fmt.Errorf("reference probe #%d: status %d: %.200s", i, rec.Code, rec.Body)
		}
		probeRef[i] = rec.Body.Bytes()
		return nil
	}); err != nil {
		return 0, 0, err
	}
	for _, o := range outs {
		var want []byte
		if o.probe {
			want = probeRef[o.idx]
		} else if k, ok := sampled[o.idx]; ok {
			want = ref.bodies[k]
		} else {
			continue
		}
		checked++
		if !o.ok() || sameAnswer(o.req, o.body, want) {
			continue
		}
		if inexactKinds[o.req.kind] && withinTolerance(o.body, want, tolerance(o.req.kind)) {
			inexact++
			continue
		}
		o.err = fmt.Errorf("%w: %s #%d\n got: %.300s\nwant: %.300s", errMismatch, o.req.kind, o.idx, o.body, want)
	}
	return checked, inexact, nil
}

// withinTolerance reports whether two JSON answers have the same shape,
// strings and flags, and agree on every number within the relative
// tolerance.
func withinTolerance(got, want []byte, tol float64) bool {
	var a, b any
	if json.Unmarshal(got, &a) != nil || json.Unmarshal(want, &b) != nil {
		return false
	}
	return closeValue(a, b, tol)
}

func closeValue(a, b any, tol float64) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !closeValue(v, w, tol) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !closeValue(x[i], y[i], tol) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// Reference files: testdata/ref_<workload>_seed<n>.json hold the
// numeric fields of the sampled reference answers, so a change to an
// engine's numbers shows even when the daemon and the reference agree.
// go test -run TestReferenceFiles -update rewrites them.

type refFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Entries  []refEntry `json:"entries"`
}

type refEntry struct {
	I    int                `json:"i"`
	Kind string             `json:"kind"`
	V    map[string]float64 `json:"v"`
}

func refPath(root, workload string, seed int64) string {
	return filepath.Join(root, "cmd", "rlcload", "testdata", fmt.Sprintf("ref_%s_seed%d.json", workload, seed))
}

func (run *referenceRun) file(w *workload, seed int64) (*refFile, error) {
	f := &refFile{Workload: w.name, Seed: seed}
	for k, i := range run.sample {
		v, err := numericFields(run.bodies[k])
		if err != nil {
			return nil, fmt.Errorf("%s #%d: %w", run.reqs[k].kind, i, err)
		}
		f.Entries = append(f.Entries, refEntry{I: i, Kind: run.reqs[k].kind, V: v})
	}
	return f, nil
}

// encode renders the file with one entry per line.
func (f *refFile) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"workload\":%q,\"seed\":%d,\"entries\":[\n", f.Workload, f.Seed)
	for k, e := range f.Entries {
		b.Write(mustJSON(e))
		if k < len(f.Entries)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// summaryKeys are the fields kept from a nested statistics object.
var summaryKeys = map[string]bool{"n": true, "mean": true, "median": true, "p95": true, "max": true, "frac_rlc": true}

// numericFields flattens the numbers of an answer: its top-level
// numbers, a few statistics of each nested summary, and the delay of
// the first, middle and last sink of a tree table. A session answer is
// flattened from its embedded result. Reduced-model metadata (mor_*)
// is left out: the certified tolerance covers delays, not the order.
func numericFields(body []byte) (map[string]float64, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	if res, ok := m["result"].(map[string]any); ok {
		m = res
	}
	out := make(map[string]float64)
	for k, v := range m {
		if strings.HasPrefix(k, "mor_") {
			continue
		}
		switch x := v.(type) {
		case float64:
			out[k] = x
		case map[string]any:
			for k2, v2 := range x {
				if f, ok := v2.(float64); ok && summaryKeys[k2] {
					out[k+"."+k2] = f
				}
			}
		case []any:
			if k != "sinks" || len(x) == 0 {
				continue
			}
			for _, j := range []int{0, len(x) / 2, len(x) - 1} {
				if s, ok := x[j].(map[string]any); ok {
					if d, ok := s["delay_s"].(float64); ok {
						out[fmt.Sprintf("sinks[%d].delay_s", j)] = d
					}
				}
			}
		}
	}
	return out, nil
}

// tolerance is the relative tolerance of a kind's numbers against the
// reference file: the certified 1% for reduced-order answers, 1e-9 for
// the closed forms, the exact and MNA engines, and sweep statistics.
func tolerance(kind string) float64 {
	switch kind {
	case "delay.reduced", "tree.reduced", "tree.warm", "session.edit.reduced", "sweep.reduced":
		return 1e-2
	}
	return 1e-9
}

// diffRefFile lists every entry of got that is missing from want or
// differs beyond its kind's tolerance.
func diffRefFile(got, want *refFile) []string {
	byI := make(map[int]refEntry, len(want.Entries))
	for _, e := range want.Entries {
		byI[e.I] = e
	}
	var diffs []string
	for _, g := range got.Entries {
		w, ok := byI[g.I]
		if !ok || w.Kind != g.Kind {
			diffs = append(diffs, fmt.Sprintf("#%d %s: not in the reference file", g.I, g.Kind))
			continue
		}
		tol := tolerance(g.Kind)
		keys := make([]string, 0, len(g.V))
		for k := range g.V {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a, b := g.V[k], w.V[k]
			if _, ok := w.V[k]; !ok || math.Abs(a-b) > tol*math.Max(math.Abs(a), math.Abs(b)) {
				diffs = append(diffs, fmt.Sprintf("#%d %s %s: got %.17g, reference file %.17g (tolerance %g)", g.I, g.Kind, k, a, b, tol))
			}
		}
	}
	return diffs
}

func readRefFile(path string) (*refFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f refFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
