package main

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ref_*.json from the current reference answers")

// TestReferenceFiles recomputes the sampled reference answers of every
// workload for seeds 1 and 2 and checks their numbers against the
// committed files, within each kind's tolerance. -update rewrites them.
func TestReferenceFiles(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				ref, err := reference(w, seed, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				got, err := ref.file(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				path := refPath(root, w.name, seed)
				if *update {
					if err := os.WriteFile(path, got.encode(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := readRefFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if len(want.Entries) != len(got.Entries) {
					t.Errorf("%d entries, the file has %d", len(got.Entries), len(want.Entries))
				}
				for _, d := range diffRefFile(got, want) {
					t.Error(d)
				}
			})
		}
	}
}

func TestWithinTolerance(t *testing.T) {
	base := `{"engine":"reduced","sinks":[{"node":3,"delay_s":1.0e-9}],"gen":4}`
	for _, c := range []struct {
		got  string
		want bool
	}{
		{base, true},
		{`{"engine":"reduced","sinks":[{"node":3,"delay_s":1.005e-9}],"gen":4}`, true},
		{`{"engine":"reduced","sinks":[{"node":3,"delay_s":1.02e-9}],"gen":4}`, false},
		{`{"engine":"mna","sinks":[{"node":3,"delay_s":1.0e-9}],"gen":4}`, false},
		{`{"engine":"reduced","sinks":[],"gen":4}`, false},
		{`{"engine":"reduced","sinks":[{"node":3,"delay_s":1.0e-9}]}`, false},
	} {
		if got := withinTolerance([]byte(c.got), []byte(base), 1e-2); got != c.want {
			t.Errorf("withinTolerance(%s) = %v, want %v", c.got, got, c.want)
		}
	}
}
