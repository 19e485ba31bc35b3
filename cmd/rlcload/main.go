// Command rlcload is rlckit's end-to-end benchmark. It builds
// cmd/rlckitd, starts it as a child process on a loopback port with
// default flags, sends each workload's seeded request stream over real
// HTTP — a warm-up, an open-loop phase of Poisson arrivals timed from
// their due times, and a closed-loop saturate phase — checks the
// answers against an in-process reference server, and prints every
// metric by name with its unit.
//
//	bash cmd/rlcload/run.sh -workload all -seed 1 -out result.json
//	bash cmd/rlcload/run.sh -workload tree-cold -seed 2 -trace spans.json
//	bash cmd/rlcload/run.sh -compare a.json b1.json,b2.json
//
// -trace 1 (or a file name, which also receives the spans) adds a
// traced run: the same seeded stream replayed serially in-process, no
// daemon, with spans around the calls into each layer's public
// functions; it reports the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// the metrics BENCHMARK.json lists (end_to_end, or per_layer with
// -trace). The exit status is 0 for a correct run, 1 for an error or a
// wrong answer and 2 for a usage error. A run that fails a validity
// guard is marked invalid in its output and result file, and -compare
// leaves it out.
//
// -compare checks two sets of result files (comma-separated) against
// the bounds in BENCHMARK.json, per metric and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// phases are the durations of one workload run.
type phases struct {
	warm, open, sat time.Duration
}

// splitSeconds divides the measured seconds between the open (2/3) and
// saturate (1/3) phases; the untimed warm-up adds 2 s (a quarter of a
// shorter run), enough to fill the 4096-entry cache at line-mix's rate.
func splitSeconds(s float64) phases {
	total := time.Duration(s * float64(time.Second))
	open := total * 2 / 3
	return phases{warm: min(2*time.Second, total/4), open: open, sat: total - open}
}

// setupTrials daemons are booted per run; setup_s is their median.
const setupTrials = 15

// maxLagMS is the validity limit on the generator's own lateness.
const maxLagMS = 1.0

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rlcload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every request stream and arrival schedule")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload, split 2:1 between the open and saturate phases (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "0", "0, 1, or a file to write the spans to: add the traced in-process run")
	outPath := fs.String("out", "", "write the result JSON to this file")
	compare := fs.Bool("compare", false, "compare two result file sets: -compare a.json[,a2.json...] b.json[,b2.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "rlcload:", err)
		return 1
	}
	spec, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "rlcload:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "rlcload: -compare takes two result file sets")
			return 2
		}
		a, err := readResults(fs.Arg(0), stderr)
		if err != nil {
			fmt.Fprintln(stderr, "rlcload:", err)
			return 1
		}
		b, err := readResults(fs.Arg(1), stderr)
		if err != nil {
			fmt.Fprintln(stderr, "rlcload:", err)
			return 1
		}
		if !compareResults(spec, a, b, stdout) {
			return 1
		}
		return 0
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if fs.NArg() != 0 || *workloadName == "" || !(*seconds > 0) {
		fmt.Fprintln(stderr, "rlcload: usage: rlcload -workload <name|all> [-seed n] [-seconds s] [-trace 0|1|file] [-out file]")
		return 2
	}
	var selected []*workload
	if *workloadName == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "rlcload:", err)
			return 2
		}
		selected = []*workload{w}
	}
	traced := *trace != "0"

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := mkdirUnder(filepath.Join(root, ".bench_build", "work"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "rlcload:", err)
		return 1
	}
	defer os.RemoveAll(work)
	bin, err := buildDaemon(ctx, root, work)
	if err != nil {
		fmt.Fprintln(stderr, "rlcload:", err)
		return 1
	}
	r := &runner{root: root, work: work, bin: bin, conns: runtime.NumCPU(), stdout: stdout, stderr: stderr}
	res := &result{
		Seed: *seed, Seconds: *seconds, GOMAXPROCS: runtime.GOMAXPROCS(0), Conns: r.conns,
		GoVersion: runtime.Version(),
	}
	allSpans := make(map[string][]span)
	for _, w := range selected {
		wr, tr, err := r.runWorkload(ctx, w, *seed, splitSeconds(*seconds), traced)
		if err != nil {
			fmt.Fprintf(stderr, "rlcload: %s: %v\n", w.name, err)
			return 1
		}
		res.Workloads = append(res.Workloads, wr)
		if tr != nil {
			allSpans[w.name] = tr.spans
		}
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(mustJSON(res), '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "rlcload:", err)
			return 1
		}
	}
	if traced && *trace != "1" {
		if err := writeSpans(*trace, allSpans); err != nil {
			fmt.Fprintln(stderr, "rlcload:", err)
			return 1
		}
	}
	last, err := lastLine(spec, res, traced)
	if err != nil {
		fmt.Fprintln(stderr, "rlcload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(mustJSON(last)))
	for _, w := range res.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

func writeSpans(path string, spans map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// lastLine collects the metrics BENCHMARK.json lists — end_to_end, or
// per_layer for a traced run — named plainly for one workload and
// <workload>/<metric> for several.
func lastLine(spec *benchSpec, res *result, traced bool) (summaryLine, error) {
	l := summaryLine{Correct: true, Metrics: make(map[string]metricValue)}
	list, from := spec.EndToEnd, func(w *wlResult) map[string]metricValue { return w.Metrics }
	if traced {
		list, from = spec.PerLayer, func(w *wlResult) map[string]metricValue { return w.Layers }
	}
	for _, w := range res.Workloads {
		l.Correct = l.Correct && w.Correct
		l.Attempted += w.Attempted
		l.Failed += w.Failed
		for _, m := range list {
			v, ok := from(w)[m.Name]
			if !ok {
				return l, fmt.Errorf("%s: metric %s was not measured", w.Name, m.Name)
			}
			name := m.Name
			if len(res.Workloads) > 1 {
				name = w.Name + "/" + m.Name
			}
			l.Metrics[name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
	}
	return l, nil
}

// result is the JSON result file of one rlcload invocation.
type result struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Conns      int         `json:"conns"`
	GoVersion  string      `json:"go_version"`
	Workloads  []*wlResult `json:"workloads"`
}

type phaseCount struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

// wlResult is one workload's run.
type wlResult struct {
	Name     string  `json:"name"`
	RateRPS  float64 `json:"rate_rps"`
	ProbeRPS float64 `json:"probe_rps"`
	LimitMS  float64 `json:"limit_ms"`
	TailQ    float64 `json:"tail_q"`
	// TailSamples open-phase latencies back tail_ms, TailBeyond of them
	// above it.
	TailSamples int                   `json:"tail_samples"`
	TailBeyond  int                   `json:"tail_beyond"`
	Phases      map[string]phaseCount `json:"phases"`
	// Checked answers were compared with the in-process reference,
	// Inexact of them matching only within their certified tolerance;
	// RefFile is the outcome of the committed reference file check.
	Checked   int                    `json:"verify_checked"`
	Inexact   int                    `json:"verify_inexact"`
	RefFile   string                 `json:"reference_file"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Valid     bool                   `json:"valid"`
	Invalid   []string               `json:"invalid,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    map[string]metricValue `json:"layers"`
	// Kinds is the round-trip time per traffic class (endpoint and
	// engine) over the open and saturate phases.
	Kinds map[string]kindStats `json:"kinds"`
	// Open is the open-phase latency profile, from due time, of the
	// stream's requests and of the probes.
	Open  map[string]latencyProfile `json:"open_latency"`
	Trace *traceResult              `json:"trace,omitempty"`
}

type latencyProfile struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// profile summarizes sorted latencies in milliseconds.
func profile(sorted []float64) latencyProfile {
	p := latencyProfile{N: len(sorted)}
	if p.N == 0 {
		return p
	}
	for _, v := range sorted {
		p.MeanMS += v / float64(p.N)
	}
	p.P50MS, p.P90MS, p.P95MS = quantile(sorted, 0.5), quantile(sorted, 0.9), quantile(sorted, 0.95)
	p.P99MS, p.MaxMS = quantile(sorted, 0.99), sorted[p.N-1]
	return p
}

type kindStats struct {
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// traceResult summarizes the traced run.
type traceResult struct {
	Requests    int     `json:"requests"`
	TracedMS    float64 `json:"traced_ms"`
	UntracedMS  float64 `json:"untraced_ms"`
	OverheadPct float64 `json:"overhead_pct"`
	// UncoveredRoots counts requests whose layer spans cover less than
	// 95% of the request span.
	UncoveredRoots int                    `json:"uncovered_roots"`
	Spans          map[string]spanSummary `json:"spans"`
}

type spanSummary struct {
	N           int     `json:"n"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
	SelfP50US   float64 `json:"self_p50_us"`
	SelfTotalMS float64 `json:"self_total_ms"`
}

type runner struct {
	root, work, bin string
	conns           int
	stdout, stderr  io.Writer
}

// runWorkload runs one workload end to end: set-up, warm-up, open
// loop, saturate, verify, and the traced replay when asked.
func (r *runner) runWorkload(ctx context.Context, w *workload, seed int64, ph phases, traced bool) (*wlResult, *tracer, error) {
	wr := &wlResult{
		Name: w.name, RateRPS: w.rate, ProbeRPS: probeRate, LimitMS: ms(w.limit), TailQ: w.tailQ,
		Phases: make(map[string]phaseCount), Metrics: make(map[string]metricValue), Layers: make(map[string]metricValue),
	}
	fmt.Fprintf(r.stdout, "rlcload %s seed=%d conns=%d rate=%g/s probes=%g/s warm-up=%s open=%s saturate=%s\n",
		w.name, seed, r.conns, w.rate, probeRate, ph.warm, ph.open, ph.sat)
	st := w.stream(seed)
	items := schedule(w, seed, st, ph.warm+ph.open)
	sampled := make(map[int]bool)
	for _, i := range sampleIndices(w, seed) {
		sampled[i] = true
	}
	keep := func(o *outcome) bool { return o.probe || sampled[o.idx] }

	var daemonArgs []string
	prepDir := ""
	if w.store {
		prepDir = filepath.Join(r.work, w.name+"-prep")
		if err := r.prep(ctx, st, prepDir); err != nil {
			return nil, nil, err
		}
	}
	var setups []float64
	var d *daemon
	for k := range setupTrials {
		if w.store {
			dir := filepath.Join(r.work, fmt.Sprintf("%s-store-%d", w.name, k))
			if err := copyDir(prepDir, dir); err != nil {
				return nil, nil, err
			}
			daemonArgs = []string{"-store-dir", dir}
		}
		dd, took, err := startDaemon(r.bin, daemonArgs...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if k < setupTrials-1 {
			dd.kill()
		} else {
			d = dd
		}
	}
	defer d.kill()

	c := newClient(d.base, r.conns, keep)
	defer c.close()
	outs := make([]outcome, len(items))
	c.runOpen(ctx, items, time.Now(), r.conns, outs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	next := 0
	for i := range items {
		outs[i].timed = items[i].at >= ph.warm
		if !items[i].probe {
			next = items[i].idx + 1
		}
	}
	sat, satElapsed := c.runSaturate(ctx, func() (*request, int) {
		next++
		return st.next(), next - 1
	}, ph.sat, r.conns)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	vars, err := d.vars()
	if err != nil {
		return nil, nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	d.stop(30 * time.Second)

	all := make([]*outcome, 0, len(outs)+len(sat))
	for i := range outs {
		all = append(all, &outs[i])
	}
	for i := range sat {
		all = append(all, &sat[i])
	}
	ref, err := reference(w, seed, r.work)
	if err != nil {
		return nil, nil, err
	}
	if wr.Checked, wr.Inexact, err = verifyOutcomes(seed, ref, all); err != nil {
		return nil, nil, err
	}
	refDiffs, err := r.checkRefFile(w, seed, ref, wr)
	if err != nil {
		return nil, nil, err
	}

	r.endToEnd(w, wr, outs, sat, satElapsed, setups, rss, refDiffs)
	wr.Kinds = kinds(all)
	r.daemonLayers(wr, outs, vars)
	var tr *tracer
	if traced {
		if tr, err = r.traceRun(w, seed, wr); err != nil {
			return nil, nil, err
		}
	}
	r.validate(w, wr, vars)
	r.print(wr, all)
	return wr, tr, nil
}

// prep drives the untimed prep daemon: the prep traffic, serially, then
// a graceful shutdown that leaves its snapshot and journal in dir.
func (r *runner) prep(ctx context.Context, st *stream, dir string) error {
	d, _, err := startDaemon(r.bin, "-store-dir", dir)
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.base, 1, func(*outcome) bool { return false })
	defer c.close()
	for _, q := range st.prep {
		o := outcome{req: q}
		if c.do(ctx, &o); !o.ok() {
			return fmt.Errorf("prep %s %s: %w", q.kind, q.path, o.err)
		}
	}
	d.stop(30 * time.Second)
	return nil
}

// checkRefFile compares the reference answers' numbers with the
// committed reference file of this workload and seed, when there is one.
func (r *runner) checkRefFile(w *workload, seed int64, ref *referenceRun, wr *wlResult) ([]string, error) {
	want, err := readRefFile(refPath(r.root, w.name, seed))
	if errors.Is(err, os.ErrNotExist) {
		wr.RefFile = "absent"
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	got, err := ref.file(w, seed)
	if err != nil {
		return nil, err
	}
	diffs := diffRefFile(got, want)
	wr.RefFile = "match"
	if len(diffs) > 0 {
		wr.RefFile = fmt.Sprintf("%d differences", len(diffs))
		for _, d := range diffs[:min(len(diffs), 10)] {
			fmt.Fprintf(r.stderr, "rlcload: %s reference file: %s\n", w.name, d)
		}
	}
	return diffs, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd fills the phase counts and the end-to-end metrics.
func (r *runner) endToEnd(w *workload, wr *wlResult, outs, sat []outcome, satElapsed time.Duration, setups []float64, rss float64, refDiffs []string) {
	count := func(name string, o *outcome) {
		pc := wr.Phases[name]
		pc.Sent++
		if o.ok() {
			pc.OK++
		} else {
			pc.Failed++
		}
		wr.Phases[name] = pc
	}
	var lat, probeLat []float64
	sloOK, sloN := 0, 0
	for i := range outs {
		o := &outs[i]
		switch {
		case o.probe:
			count("probes", o)
		case o.timed:
			count("open", o)
		default:
			count("warmup", o)
		}
		if !o.timed {
			continue
		}
		sloN++
		if o.ok() && o.latency <= w.limit {
			sloOK++
		}
		if !o.ok() {
			continue
		}
		if o.probe {
			probeLat = append(probeLat, ms(o.latency))
		} else {
			lat = append(lat, ms(o.latency))
		}
	}
	samples := 0
	for i := range sat {
		count("saturate", &sat[i])
		if sat[i].ok() {
			samples += sat[i].req.samples
		}
	}
	for _, pc := range wr.Phases {
		wr.Attempted += pc.Sent
		wr.Failed += pc.Failed
	}
	wr.Failed += len(refDiffs)
	wr.Correct = wr.Failed == 0

	sort.Float64s(lat)
	sort.Float64s(probeLat)
	wr.Open = map[string]latencyProfile{"stream": profile(lat), "probes": profile(probeLat)}
	wr.TailSamples = len(lat)
	wr.TailBeyond = len(lat) - int(math.Ceil(w.tailQ*float64(len(lat))))
	satSecs := satElapsed.Seconds()
	set := func(name string, v float64, unit string) { wr.Metrics[name] = metricValue{Value: v, Unit: unit} }
	set("setup_s", median(setups), "s")
	set("p50_ms", quantile(lat, 0.5), "ms")
	set("tail_ms", quantile(lat, w.tailQ), "ms")
	set("probe_p99_ms", quantile(probeLat, 0.99), "ms")
	set("slo_ok_frac", float64(sloOK)/float64(sloN), "fraction")
	set("fail_frac", float64(wr.Failed)/float64(wr.Attempted), "fraction")
	set("capacity_rps", float64(wr.Phases["saturate"].OK)/satSecs, "req/s")
	if samples > 0 {
		set("mc_samples_per_s", float64(samples)/satSecs, "samples/s")
	}
	set("peak_rss_mb", rss, "MB")
}

// daemonLayers fills the per-layer metrics the end-to-end run measures:
// the generator's own timing, the transport's hit round trip, and the
// daemon's counters read from /debug/vars after the run.
func (r *runner) daemonLayers(wr *wlResult, outs []outcome, v debugVars) {
	var lag, wait, hitRTT []float64
	for i := range outs {
		o := &outs[i]
		if !o.timed {
			continue
		}
		wait = append(wait, ms(o.connWait))
		if o.connWait == 0 {
			lag = append(lag, ms(o.lag))
		}
		if o.hit && !o.probe && o.ok() {
			hitRTT = append(hitRTT, float64(o.rtt)/1e3)
		}
	}
	set := func(name string, v float64, unit string, n int) {
		wr.Layers[name] = metricValue{Value: v, Unit: unit, N: n}
	}
	ld := summarize(lag)
	set("load.lag_p99_ms", orZero(ld.P99), "ms", ld.N)
	wd := summarize(wait)
	set("load.conn_wait_p99_ms", orZero(wd.P99), "ms", wd.N)
	if len(hitRTT) > 0 {
		hd := summarize(hitRTT)
		set("transport.hit_rtt_p50_us", hd.P50, "us", hd.N)
	}
	s, m := v.Rlckitd, v.Memstats
	set("serve.batch_mean", ratio(float64(s.Batched), float64(s.Batches)), "tasks", int(s.Batches))
	set("serve.rejected", float64(s.Rejected), "count", 0)
	set("cache.hit_ratio", ratio(float64(s.Cache.Hits), float64(s.Cache.Hits+s.Cache.Misses)), "fraction", int(s.Cache.Hits+s.Cache.Misses))
	set("cache.evictions", float64(s.Cache.Evictions), "count", 0)
	set("cache.warm_hits", float64(s.WarmHits), "count", 0)
	set("store.discarded", float64(s.StoreDiscardedCorrupt), "count", 0)
	set("mor.daemon_fallback_frac", ratio(float64(s.MORFallbacks), float64(s.MORHits+s.MORFallbacks)), "fraction", int(s.MORHits+s.MORFallbacks))
	set("mor.daemon_pencil_hit_ratio", ratio(float64(s.PencilHits), float64(s.PencilHits+s.PencilBuilds)), "fraction", int(s.PencilHits+s.PencilBuilds))
	set("runtime.gc_cpu_frac", m.GCCPUFraction, "fraction", int(m.NumGC))
	set("runtime.gc_pause_total_ms", float64(m.PauseTotalNs)/1e6, "ms", int(m.NumGC))
	set("runtime.heap_alloc_mb", float64(m.HeapAlloc)/(1<<20), "MB", 0)
}

// kinds summarizes the round-trip times of the timed answers by kind.
func kinds(all []*outcome) map[string]kindStats {
	rtts := make(map[string][]float64)
	for _, o := range all {
		if o.ok() && o.timed {
			rtts[o.req.kind] = append(rtts[o.req.kind], ms(o.rtt))
		}
	}
	out := make(map[string]kindStats, len(rtts))
	for k, v := range rtts {
		d := summarize(v)
		out[k] = kindStats{N: d.N, P50MS: d.P50, P99MS: d.P99}
	}
	return out
}

// ratio is a/b, and 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// spanMetrics maps per-layer metrics to the span whose p50 duration
// they report, with the unit's size in nanoseconds.
var spanMetrics = []struct {
	metric, span, unit string
	scale              float64
}{
	{"serve.decode_us", "decode", "us", 1e3},
	{"serve.decode_tree_us", "decode.tree", "us", 1e3},
	{"serve.encode_us", "encode", "us", 1e3},
	{"cache.get_ns", "cache.get", "ns", 1},
	{"cache.put_ns", "cache.put", "ns", 1},
	{"engine.delay_eq9_us", "engine.delay_eq9", "us", 1e3},
	{"engine.delay_exact_us", "engine.delay_exact", "us", 1e3},
	{"engine.delay_reduced_us", "engine.delay_reduced", "us", 1e3},
	{"engine.screen_us", "engine.screen", "us", 1e3},
	{"engine.repeaters_us", "engine.repeaters", "us", 1e3},
	{"engine.tree_closed_us", "engine.tree_closed", "us", 1e3},
	{"engine.tree_mna_ms", "engine.tree_mna", "ms", 1e6},
	{"engine.tree_reduced_ms", "engine.tree_reduced", "ms", 1e6},
	{"session.open_ms", "session.open", "ms", 1e6},
	{"session.apply_us", "session.apply", "us", 1e3},
	{"session.result_closed_us", "session.result.closed", "us", 1e3},
	{"session.result_reduced_ms", "session.result.reduced", "ms", 1e6},
	{"store.append_us", "store.append", "us", 1e3},
	{"store.append_sync_us", "store.append_sync", "us", 1e3},
	{"store.snapshot_ms", "store.snapshot", "ms", 1e6},
	{"store.recover_ms", "store.recover", "ms", 1e6},
	{"netgen.random_nets_ms", "netgen.random_nets", "ms", 1e6},
}

// sweepPerSample maps the sweep estimators to their per-sample metric.
var sweepPerSample = []struct {
	estimator, metric, unit string
	scale                   float64
}{
	{"closed", "sweep.closed_ns_per_sample", "ns/sample", 1},
	{"smart", "sweep.smart_ns_per_sample", "ns/sample", 1},
	{"reduced", "sweep.reduced_us_per_sample", "us/sample", 1e3},
	{"simulated", "sweep.simulated_us_per_sample", "us/sample", 1e3},
}

// traceRun replays the workload in-process — untraced and traced, and
// through a serve.Server handler — and fills the per-layer metrics from
// the spans of the last traced replay.
func (r *runner) traceRun(w *workload, seed int64, wr *wlResult) (*tracer, error) {
	dir, err := mkdirUnder(r.work, w.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sub := func(name string) string {
		p := filepath.Join(dir, name)
		os.MkdirAll(p, 0o755) // store.Open reports an unusable directory
		return p
	}
	// Untraced and traced replays alternate, twice each, and each side
	// keeps its fastest: the first replay of a process runs on a colder
	// heap and cache, which would otherwise read as negative overhead.
	var rp *replayer
	untraced, traced := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := range 2 {
		for _, on := range []bool{false, true} {
			st, items := replayItems(w, seed)
			got, took, err := replayRun(st, items, sub(fmt.Sprintf("replay-%d-%v", round, on)), on)
			if err != nil {
				return nil, err
			}
			if on {
				traced, rp = min(traced, took), got
			} else {
				untraced = min(untraced, took)
			}
		}
	}
	st, items := replayItems(w, seed)
	hit, miss, err := handlerReplay(w, st, items, sub("handler"))
	if err != nil {
		return nil, err
	}

	stats, uncovered := aggregateSpans(rp.tr.spans, 0.95)
	trr := &traceResult{
		Requests: len(items), TracedMS: ms(traced), UntracedMS: ms(untraced),
		OverheadPct:    100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(),
		UncoveredRoots: uncovered, Spans: make(map[string]spanSummary),
	}
	for name, s := range stats {
		d, self := summarize(s.durs), summarize(s.selfs)
		trr.Spans[name] = spanSummary{N: d.N, P50US: d.P50 / 1e3, P99US: d.P99 / 1e3, SelfP50US: self.P50 / 1e3, SelfTotalMS: self.Sum / 1e6}
	}
	wr.Trace = trr
	set := func(name string, v float64, unit string, n int) {
		wr.Layers[name] = metricValue{Value: v, Unit: unit, N: n}
	}
	for _, m := range spanMetrics {
		if s, ok := stats[m.span]; ok {
			d := summarize(s.durs)
			set(m.metric, d.P50/m.scale, m.unit, d.N)
		}
	}
	for _, m := range sweepPerSample {
		if s, ok := stats["sweep.run."+m.estimator]; ok && rp.counts.sweepSamples[m.estimator] > 0 {
			n := rp.counts.sweepSamples[m.estimator]
			set(m.metric, summarize(s.durs).Sum/float64(n)/m.scale, m.unit, n)
		}
	}
	c := rp.counts
	set("mor.fallback_frac", ratio(float64(c.fallbacks), float64(c.reduced)), "fraction", c.reduced)
	set("mor.pencil_hit_ratio", ratio(float64(rp.pencils.hits), float64(rp.pencils.hits+rp.pencils.builds)), "fraction", rp.pencils.hits+rp.pencils.builds)
	set("session.fallback_frac", ratio(float64(c.sessFallbacks), float64(c.sessReduced)), "fraction", c.sessReduced)
	set("sweep.reduced_fallback_frac", ratio(float64(c.sweepFalls), float64(c.sweepReduced+c.sweepFalls)), "fraction", c.sweepReduced+c.sweepFalls)
	if len(hit) > 0 {
		hd := summarize(hit)
		set("serve.handler_hit_us", hd.P50, "us", hd.N)
		if rtt, ok := wr.Layers["transport.hit_rtt_p50_us"]; ok {
			set("transport.self_us", rtt.Value-hd.P50, "us", rtt.N)
		}
	}
	md := summarize(miss)
	set("serve.handler_miss_us", md.P50, "us", md.N)
	return rp.tr, nil
}

// validate applies the validity guards.
func (r *runner) validate(w *workload, wr *wlResult, v debugVars) {
	if lag := wr.Layers["load.lag_p99_ms"].Value; lag > maxLagMS {
		wr.Invalid = append(wr.Invalid, fmt.Sprintf("generator lag p99 %.3f ms > %g ms", lag, maxLagMS))
	}
	if n := v.Rlckitd.StoreDiscardedCorrupt; n > 0 {
		wr.Invalid = append(wr.Invalid, fmt.Sprintf("store discarded %d records", n))
	}
	if wr.TailBeyond < 10 {
		wr.Invalid = append(wr.Invalid, fmt.Sprintf("open phase sent %d requests: p%g needs %d",
			wr.TailSamples, 100*w.tailQ, int(math.Ceil(10/(1-w.tailQ)))))
	}
	wr.Valid = len(wr.Invalid) == 0
}

// print writes the run's phases, verification, and every metric by
// name with its unit.
func (r *runner) print(wr *wlResult, all []*outcome) {
	out := r.stdout
	for _, name := range []string{"warmup", "open", "probes", "saturate"} {
		pc := wr.Phases[name]
		fmt.Fprintf(out, "  phase %-8s sent=%d ok=%d failed=%d\n", name, pc.Sent, pc.OK, pc.Failed)
	}
	fmt.Fprintf(out, "  verify: %d answers compared with the in-process reference (%d equal only within the certified tolerance), reference file: %s\n",
		wr.Checked, wr.Inexact, wr.RefFile)
	shown := 0
	for _, o := range all {
		if !o.ok() && shown < 5 {
			fmt.Fprintf(r.stderr, "rlcload: %s %s #%d failed: %v\n", wr.Name, o.req.kind, o.idx, o.err)
			shown++
		}
	}
	fmt.Fprintf(out, "  tail_ms is p%g of %d open-phase samples (%d beyond it)\n", 100*wr.TailQ, wr.TailSamples, wr.TailBeyond)
	for _, name := range []string{"stream", "probes"} {
		p := wr.Open[name]
		fmt.Fprintf(out, "  open latency of the %-7s n=%-6d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f ms\n",
			name, p.N, p.MeanMS, p.P50MS, p.P90MS, p.P95MS, p.P99MS, p.MaxMS)
	}
	printMetrics(out, wr.Name, wr.Metrics)
	printMetrics(out, wr.Name, wr.Layers)
	kindNames := make([]string, 0, len(wr.Kinds))
	for k := range wr.Kinds {
		kindNames = append(kindNames, k)
	}
	sort.Strings(kindNames)
	for _, k := range kindNames {
		s := wr.Kinds[k]
		fmt.Fprintf(out, "  %s rtt %-22s n=%-6d p50=%.3f ms p99=%.3f ms\n", wr.Name, k, s.N, s.P50MS, s.P99MS)
	}
	if t := wr.Trace; t != nil {
		fmt.Fprintf(out, "  traced replay: %d requests, %.1f ms traced vs %.1f ms untraced (tracing overhead %.1f%%), %d requests with <95%% span coverage\n",
			t.Requests, t.TracedMS, t.UntracedMS, t.OverheadPct, t.UncoveredRoots)
		names := make([]string, 0, len(t.Spans))
		for n := range t.Spans {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return t.Spans[names[i]].SelfTotalMS > t.Spans[names[j]].SelfTotalMS })
		fmt.Fprintf(out, "  %-24s %7s %12s %12s %12s %14s\n", "span", "calls", "p50_us", "p99_us", "self_p50_us", "self_total_ms")
		for _, n := range names {
			s := t.Spans[n]
			fmt.Fprintf(out, "  %-24s %7d %12.3f %12.3f %12.3f %14.3f\n", n, s.N, s.P50US, s.P99US, s.SelfP50US, s.SelfTotalMS)
		}
	}
	if !wr.Valid {
		fmt.Fprintf(out, "  INVALID: %s\n", strings.Join(wr.Invalid, "; "))
	}
}

func printMetrics(out io.Writer, workload string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if m.N > 0 {
			fmt.Fprintf(out, "  %s %s = %.6g %s (n=%d)\n", workload, n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(out, "  %s %s = %.6g %s\n", workload, n, m.Value, m.Unit)
		}
	}
}
