// Command whatif replays an edit script against a stateful what-if
// session: the tree is loaded once, then each step's edit batch is
// applied and the per-sink delay table re-read through the session's
// incremental paths (reused moment workspaces, frozen-ordering
// re-factorization) instead of a from-scratch analysis per step. The
// session answers engine "reduced" with the frozen exact engine and
// says so ("mna (reduced fell back)").
//
// The script is JSON:
//
//	{
//	  "tree": {
//	    "root_c": 5e-15,
//	    "branches": [{"parent": 0, "r": 20, "l": 5e-10, "c": 4e-14}],
//	    "sinks":    [{"node": 1, "cl": 2e-14}]
//	  },
//	  "drive":  {"rtr": 80},
//	  "engine": "mna",
//	  "steps": [
//	    [{"op": "branch", "node": 1, "r": 18, "l": 3.5e-10}],
//	    [{"op": "driver", "rtr": 70}, {"op": "load", "node": 1, "cl": 4e-14}]
//	  ]
//	}
//
// Branch nodes are 1-based tree indices in declaration order (node 0
// is the root). Each step is one atomic batch: either every edit in it
// applies or none do. Results are bit-identical to analyzing the
// edited tree from scratch (with engine "mna" for "reduced").
//
// Usage:
//
//	whatif script.json
//	whatif -engine reduced -v script.json
//	generate-edits | whatif -
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rlckit"
	"rlckit/internal/units"
)

// usageError marks failures caused by how the command was invoked;
// main reports them with a usage pointer and exit status 2.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `usage: whatif [flags] script.json

Replays a what-if edit script: loads the script's RLC tree into a
session, applies each step's edit batch, and prints the re-analyzed
delay and skew after every step. "-" reads the script from stdin.

  whatif script.json
  whatif -engine reduced -v script.json

Flags:
`)
	flag.PrintDefaults()
}

type options struct {
	engine  string
	verbose bool
	path    string
}

func main() {
	var o options
	flag.StringVar(&o.engine, "engine", "", "delay engine (closed, mna, reduced); overrides the script's")
	flag.BoolVar(&o.verbose, "v", false, "print the per-sink delay table after every step")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "whatif: expected exactly one script argument")
		flag.Usage()
		os.Exit(2)
	}
	o.path = flag.Arg(0)
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "whatif:", err)
		if errors.As(err, &usageError{}) {
			fmt.Fprintln(os.Stderr, "run 'whatif -h' for usage")
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// script is the whatif input document.
type script struct {
	Tree   treeSpec               `json:"tree"`
	Drive  driveSpec              `json:"drive"`
	Engine string                 `json:"engine,omitempty"`
	Steps  [][]rlckit.SessionEdit `json:"steps"`
}

type treeSpec struct {
	RootC    float64      `json:"root_c"`
	Branches []branchSpec `json:"branches"`
	Sinks    []sinkSpec   `json:"sinks"`
}

type branchSpec struct {
	Parent int     `json:"parent"`
	R      float64 `json:"r"`
	L      float64 `json:"l"`
	C      float64 `json:"c"`
}

type sinkSpec struct {
	Node int     `json:"node"`
	CL   float64 `json:"cl"`
}

type driveSpec struct {
	Rtr float64 `json:"rtr"`
}

func run(o options, out io.Writer) error {
	sc, err := loadScript(o.path)
	if err != nil {
		return err
	}
	name := o.engine
	if name == "" {
		name = sc.Engine
	}
	if name == "" {
		name = "closed"
	}
	engine, err := parseEngine(name)
	if err != nil {
		return usageError{err}
	}
	t, err := buildTree(sc.Tree)
	if err != nil {
		return usageError{fmt.Errorf("script tree: %w", err)}
	}
	drv := rlckit.TreeDrive{Rtr: sc.Drive.Rtr}
	sess, err := rlckit.OpenSession(t, drv, rlckit.TreeConfig{})
	if err != nil {
		return usageError{fmt.Errorf("open session: %w", err)}
	}
	defer sess.Close()

	ctx := context.Background()
	res, err := sess.Result(ctx, engine)
	if err != nil {
		return fmt.Errorf("initial analysis: %w", err)
	}
	fmt.Fprintf(out, "loaded: %d nodes, %d sinks, engine %s\n",
		t.Len(), len(t.Sinks()), engineLabel(res))
	printStep(out, "open", res, o.verbose)

	for i, batch := range sc.Steps {
		if err := sess.Apply(batch); err != nil {
			return fmt.Errorf("step %d: %w", i+1, err)
		}
		res, err := sess.Result(ctx, engine)
		if err != nil {
			return fmt.Errorf("step %d: %w", i+1, err)
		}
		printStep(out, fmt.Sprintf("step %d (%d edits)", i+1, len(batch)), res, o.verbose)
	}

	st := sess.Stats()
	fmt.Fprintf(out, "\n%d steps, %d edits applied; %d exact fallbacks, %d rebuilds\n",
		len(sc.Steps), st.Edits, st.Fallbacks, st.Rebuilds)
	return nil
}

func loadScript(path string) (*script, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, usageError{err}
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc script
	if err := dec.Decode(&sc); err != nil {
		return nil, usagef("script: %w", err)
	}
	if len(sc.Tree.Branches) == 0 {
		return nil, usagef("script: tree has no branches")
	}
	return &sc, nil
}

func buildTree(spec treeSpec) (*rlckit.RLCTree, error) {
	t, err := rlckit.NewTree(spec.RootC)
	if err != nil {
		return nil, err
	}
	for i, b := range spec.Branches {
		if _, err := t.Add(b.Parent, b.R, b.L, b.C); err != nil {
			return nil, fmt.Errorf("branch %d: %w", i, err)
		}
	}
	for _, s := range spec.Sinks {
		if err := t.MarkSink(s.Node, s.CL); err != nil {
			return nil, fmt.Errorf("sink %d: %w", s.Node, err)
		}
	}
	return t, nil
}

func parseEngine(s string) (rlckit.TreeEngine, error) {
	switch s {
	case "closed":
		return rlckit.TreeEngineClosed, nil
	case "mna":
		return rlckit.TreeEngineMNA, nil
	case "reduced":
		return rlckit.TreeEngineReduced, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (have closed, mna, reduced)", s)
	}
}

func engineLabel(res *rlckit.TreeResult) string {
	if res.Fallback {
		return "mna (reduced fell back)"
	}
	if res.Reduced {
		return fmt.Sprintf("reduced (q=%d of n=%d, err %.3g%%)",
			res.MORInfo.Q, res.MORInfo.N, res.MORInfo.EstErrPct)
	}
	return res.Engine.String()
}

func printStep(out io.Writer, label string, res *rlckit.TreeResult, verbose bool) {
	fmt.Fprintf(out, "%-20s  critical %12s   skew %12s\n",
		label, units.Format(res.MaxDelay, "s", 4), units.Format(res.MaxSkew, "s", 4))
	if !verbose {
		return
	}
	for _, s := range res.Sinks {
		fmt.Fprintf(out, "    sink %4d  %12s\n", s.Node, units.Format(s.Delay, "s", 4))
	}
}
