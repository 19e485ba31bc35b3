package main

import (
	"bytes"
	"context"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// TestSmoke builds the daemon and runs every workload for 1 s open and
// 1 s saturate, then verification and a short traced replay, asserting
// that every metric BENCHMARK.json names is printed with its unit and
// that no request failed. The validity guards are not asserted: a 1 s
// open phase is too short for any tail percentile. The seed has no
// reference file: the shortened verification sample would not match one.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("a timed run under the race detector measures the detector")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	ctx := context.Background()
	bin, err := buildDaemon(ctx, root, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			r := &runner{root: root, work: work, bin: bin, conns: runtime.NumCPU(), stdout: &stdout, stderr: &stderr}
			small := *w
			small.sampleM, small.sampleN, small.replayN = 40, 10, 20
			wr, _, err := r.runWorkload(ctx, &small, 3, phases{open: time.Second, sat: time.Second}, true)
			if err != nil {
				t.Fatal(err)
			}
			if v := wr.Metrics["fail_frac"].Value; v != 0 {
				t.Errorf("fail_frac = %g:\n%s", v, stderr.String())
			}
			for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
				re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(w.name+" "+m.Name) + ` = \S+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
				if !re.Match(stdout.Bytes()) {
					t.Errorf("metric %s (%s) not printed", m.Name, m.Unit)
				}
			}
			if t.Failed() {
				t.Log(stdout.String())
			}
		})
	}
}
