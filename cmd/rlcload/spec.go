package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is BENCHMARK.json: the benchmark's command, workloads and
// metrics, with the regression bound of each end-to-end metric.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a per-layer value (omitted for
	// counters and end-to-end metrics).
	N int `json:"n,omitempty"`
}

// worse returns how much worse b is than a, as a share of a, for a
// metric where better says which direction is better.
func worse(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults checks result files b against result files a (each
// side's median per workload and metric) against the bounds in spec,
// prints one row per end-to-end metric and workload, and reports
// whether every row is within its bound. A row without a valid run on
// either side fails: nothing shows it within its bound.
func compareResults(spec *benchSpec, a, b []*result, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "%-13s %-16s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "worse", "bound")
	for _, ws := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := sideMedian(a, ws.Name, m.Name), sideMedian(b, ws.Name, m.Name)
			if math.IsNaN(va) || math.IsNaN(vb) {
				fmt.Fprintf(out, "%-13s %-16s %14.6g %14.6g %9s %6.1f%% NO VALID RUN\n", ws.Name, m.Name, va, vb, "", 100*m.Bound)
				ok = false
				continue
			}
			w := worse(m.Better, va, vb)
			verdict := "ok"
			if w > m.Bound {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(out, "%-13s %-16s %14.6g %14.6g %8.2f%% %6.1f%% %s\n", ws.Name, m.Name, va, vb, 100*w, 100*m.Bound, verdict)
		}
	}
	return ok
}

func sideMedian(side []*result, workload, metric string) float64 {
	var vals []float64
	for _, r := range side {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			if v, ok := w.Metrics[metric]; ok {
				vals = append(vals, v.Value)
			}
		}
	}
	return median(vals)
}

// readResults loads a comma-separated list of result files, leaving
// out (and reporting to warn) every workload run marked invalid.
func readResults(list string, warn io.Writer) ([]*result, error) {
	var out []*result
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		valid := r.Workloads[:0]
		for _, w := range r.Workloads {
			if w.Valid {
				valid = append(valid, w)
			} else {
				fmt.Fprintf(warn, "rlcload: %s: %s run is invalid (%s), left out\n", path, w.Name, strings.Join(w.Invalid, "; "))
			}
		}
		r.Workloads = valid
		out = append(out, &r)
	}
	return out, nil
}
