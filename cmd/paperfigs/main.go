// Command paperfigs regenerates every table and figure of the paper's
// evaluation (experiment index E1-E9 in internal/paper's package doc).
//
// Usage:
//
//	paperfigs -all           # everything (E3/E4/E5 true-optimizer runs included)
//	paperfigs -table1        # E1
//	paperfigs -fig2          # E2
//	paperfigs -fig4 [-true]  # E3/E4
//	paperfigs -increase      # E5/E6
//	paperfigs -length        # E7
//	paperfigs -opt           # E8
//	paperfigs -scaling       # E9
//	paperfigs -refit         # E10: re-derive the Eq. 9 constants
//	paperfigs -risetime      # E11: step-input assumption validity
//	paperfigs -census        # E12: RLC-needed fraction by node
//	paperfigs -table1 -csv   # CSV instead of aligned text (tables only)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rlckit/internal/paper"
	"rlckit/internal/report"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "E1: Table 1")
		fig2     = flag.Bool("fig2", false, "E2: Figure 2")
		fig4     = flag.Bool("fig4", false, "E3/E4: Figure 4")
		incTrue  = flag.Bool("true", false, "include exact-engine optimizer in -fig4/-increase")
		increase = flag.Bool("increase", false, "E5/E6: Eq. 16-18 curves")
		length   = flag.Bool("length", false, "E7: delay vs length")
		opt      = flag.Bool("opt", false, "E8: closed-form optimality gap")
		scaling  = flag.Bool("scaling", false, "E9: technology scaling trend")
		refit    = flag.Bool("refit", false, "E10: re-derive the Eq. 9 constants")
		risetime = flag.Bool("risetime", false, "E11: step-input assumption validity")
		census   = flag.Bool("census", false, "E12: RLC-needed fraction by node")
		csv      = flag.Bool("csv", false, "emit tables as CSV")
	)
	flag.Parse()
	if *all {
		*table1, *fig2, *fig4, *increase, *length, *opt, *scaling = true, true, true, true, true, true, true
		*refit, *risetime, *census = true, true, true
		*incTrue = true
	}
	if !(*table1 || *fig2 || *fig4 || *increase || *length || *opt || *scaling || *refit || *risetime || *census) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		table1: *table1, fig2: *fig2, fig4: *fig4, incTrue: *incTrue,
		increase: *increase, length: *length, opt: *opt, scaling: *scaling,
		refit: *refit, risetime: *risetime, census: *census, csv: *csv,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// config bundles the experiment selection flags.
type config struct {
	table1, fig2, fig4, incTrue, increase bool
	length, opt, scaling                  bool
	refit, risetime, census               bool
	csv                                   bool
}

func emit(w io.Writer, tb *report.Table, csv bool) error {
	if csv {
		return tb.WriteCSV(w)
	}
	return tb.Render(w)
}

func run(w io.Writer, cfg config) error {
	table1, fig2, fig4, incTrue := cfg.table1, cfg.fig2, cfg.fig4, cfg.incTrue
	increase, length, opt, scaling, csv := cfg.increase, cfg.length, cfg.opt, cfg.scaling, cfg.csv
	if table1 {
		cells, tb, err := paper.Table1()
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		s := paper.Stats(cells)
		fmt.Fprintf(w, "\nE1 summary: max err %.2f%%, mean %.2f%%, %d/%d cells within 5%%; eq9-vs-printed decode max %.2f%%\n\n",
			s.MaxErrPct, s.MeanErrPct, s.CellsWithin5Pct, s.Cells, s.MaxModelDecodeErrPct)
	}
	if fig2 {
		pts, plot, err := paper.Fig2(nil)
		if err != nil {
			return err
		}
		if err := plot.Render(w); err != nil {
			return err
		}
		worst := 0.0
		for _, p := range pts {
			if p.RTCT <= 1 {
				if e := p.ErrPctVsEq9; e > worst || -e > worst {
					if e < 0 {
						e = -e
					}
					worst = e
				}
			}
		}
		fmt.Fprintf(w, "\nE2 summary: %d points; worst in-domain Eq. 9 error %.1f%%\n\n", len(pts), worst)
	}
	if fig4 {
		pts, plot, err := paper.Fig4(nil, incTrue)
		if err != nil {
			return err
		}
		if err := plot.Render(w); err != nil {
			return err
		}
		tb := report.NewTable("E3/E4 data", "T", "h' Eq.14", "k' Eq.15", "h' Eq.9-opt", "k' Eq.9-opt", "h' true-opt", "k' true-opt")
		for _, p := range pts {
			tb.AddRow(p.TLR, p.HpClosed, p.KpClosed, p.HpEq9, p.KpEq9, p.HpTrue, p.KpTrue)
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if increase {
		_, tb, err := paper.Increases(nil, incTrue)
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if length {
		_, tb, err := paper.LengthScaling(0, 0, 0)
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if opt {
		_, tb, err := paper.Optimality(nil)
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if scaling {
		_, tb, err := paper.ScalingTrend()
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if cfg.refit {
		_, tb, err := paper.Refit()
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if cfg.risetime {
		_, tb, err := paper.RiseTimeSensitivity(nil)
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if cfg.census {
		_, tb, err := paper.ScreenCensus(2026, 150)
		if err != nil {
			return err
		}
		if err := emit(w, tb, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
