// Command experiments regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for the index):
//
//	experiments table1              FIFO literature rows + empirical check
//	experiments table2              all lower/upper bound rows (Theorems 3-10)
//	experiments fig1                structure reduction graph witnesses
//	experiments fig2                Theorem 5 adversary phases
//	experiments fig3                EFT-Min adversary schedule (Gantt)
//	experiments fig4                schedule profile vs stable profile
//	experiments fig5-6              Lemma 2/3 plateau propagation
//	experiments fig7                Theorem 10 small-task padding
//	experiments fig8                popularity load distributions
//	experiments fig9                replication strategy example
//	experiments fig10a              max-load sweep (LP (15)) heat map
//	experiments fig10b              overlapping/disjoint gain matrix
//	experiments fig11               Fmax vs load simulations
//	experiments extension           replication-strategy ablation
//	experiments robustness          EFT under noisy processing-time estimates
//	experiments convergence         Theorem 8 convergence time vs the m³ bound
//	experiments writes              write fan-out extension (Fmax vs write fraction)
//	experiments drift               popularity-drift extension (moving hot spots)
//	experiments faults              fault injection (strategies under server failures)
//	experiments overload            overload control (goodput vs load past λ*)
//	experiments postmortem          causal chains of the worst-flow tasks per overload policy
//	experiments autoscale           elastic provisioning (machine-hours vs Fmax on a bursty trace)
//	experiments hedge               hedged execution (speculative duplicates vs gray faults and overload)
//	experiments metastable          retry storms (a healed outage with and without the resilience layer)
//	experiments all                 everything above
//
// Flags select sizes; defaults follow the paper (m=15, k=3, 10 000 tasks,
// 10 repetitions, 100 permutations). Use -quick for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flowsched"
	"flowsched/internal/experiments"
	"flowsched/internal/parallel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line args, renders the named experiments to stdout
// and returns the process exit code: 0 on success, 1 when an experiment
// fails, 2 on a usage error. Progress and errors go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smaller configurations for a fast run: -m 10 -n 2000 -reps 3 -perms 10, except where those flags are set explicitly")
	m := fs.Int("m", 15, "machines for interval experiments (fig10/fig11/table2)")
	k := fs.Int("k", 3, "replication factor / interval size")
	n := fs.Int("n", 10000, "tasks per simulation run (fig11)")
	reps := fs.Int("reps", 10, "repetitions per point (fig11)")
	perms := fs.Int("perms", 100, "permutations per cell (fig10)")
	seed := fs.Int64("seed", 1, "random seed")
	csvDir := fs.String("csvdir", "", "also write fig10/fig11 data as CSV files into this directory")
	progress := fs.Bool("progress", false, "report per-trial progress of the parallel sweeps (table1, fig11) on stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: experiments [flags] <table1|table2|fig1|fig2|fig3|fig4|fig5-6|fig7|fig8|fig9|fig10a|fig10b|fig11|extension|robustness|convergence|writes|drift|faults|overload|postmortem|autoscale|hedge|metastable|all>")
		return 2
	}

	if *quick {
		applyQuick(fs)
	}

	render := func(name string) error {
		w := stdout
		switch name {
		case "table1":
			cfg := experiments.DefaultTable1()
			cfg.Seed = *seed
			cfg.Progress = progressReporter(stderr, *progress, "table1 trials")
			_, err := experiments.Table1(w, cfg)
			return err
		case "table2":
			cfg := experiments.DefaultTable2()
			cfg.M, cfg.K, cfg.Seed = *m, *k, *seed
			_, err := experiments.Table2(w, cfg)
			return err
		case "fig1":
			return experiments.Figure1(w, 12, *seed)
		case "fig2":
			return experiments.Figure2(w, 16)
		case "fig3":
			return experiments.Figure3(w, 6, 3, 4)
		case "fig4":
			return experiments.Figure4(w, *m, *k)
		case "fig5", "fig6", "fig5-6":
			return experiments.Figure5and6(w, 6, 3)
		case "fig7":
			return experiments.Figure7(w, 6, 3)
		case "fig8":
			return experiments.Figure8(w, 6, 1, *seed)
		case "fig9":
			return experiments.Figure9(w, 6, 3)
		case "fig10a":
			cfg := experiments.DefaultFig10()
			cfg.M, cfg.Perms, cfg.Seed = *m, *perms, *seed
			cfg.Ks = ksUpTo(*m)
			data, err := experiments.Figure10a(w, cfg)
			if err != nil {
				return err
			}
			if err := writeCSV(stdout, *csvDir, "fig10a.csv", data.WriteCSV); err != nil {
				return err
			}
			return writeFig10SVGs(stdout, *csvDir, data)
		case "fig10b":
			cfg := experiments.DefaultFig10()
			cfg.M, cfg.Perms, cfg.Seed = *m, *perms, *seed
			cfg.Ks = ksUpTo(*m)
			data, err := experiments.Figure10b(w, cfg)
			if err != nil {
				return err
			}
			return writeCSV(stdout, *csvDir, "fig10b.csv", data.WriteRatioCSV)
		case "fig11":
			cfg := experiments.DefaultFig11()
			cfg.M, cfg.K, cfg.N, cfg.Reps, cfg.Seed = *m, *k, *n, *reps, *seed
			cfg.Progress = progressReporter(stderr, *progress, "fig11 cells")
			data, err := experiments.Figure11(w, cfg)
			if err != nil {
				return err
			}
			return writeCSV(stdout, *csvDir, "fig11.csv", data.WriteCSV)
		case "extension":
			cfg := experiments.DefaultExtension()
			cfg.M, cfg.K, cfg.N, cfg.Reps, cfg.Seed = *m, *k, *n, *reps, *seed
			_, err := experiments.ExtensionStrategies(w, cfg)
			return err
		case "robustness":
			cfg := experiments.DefaultRobustness()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			_, err := experiments.Robustness(w, cfg)
			return err
		case "convergence":
			_, err := experiments.Convergence(w, []int{6, 8, 10, 12, 15}, []int{2, 3, 5})
			return err
		case "writes":
			cfg := experiments.DefaultWrites()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			cfg.Rate = 0.4 * float64(*m)
			_, err := experiments.WriteFanout(w, cfg)
			return err
		case "drift":
			cfg := experiments.DefaultDrift()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			_, err := experiments.PopularityDrift(w, cfg)
			return err
		case "faults":
			cfg := experiments.DefaultFaultTolerance()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			if *quick {
				cfg.Reps = 2
				cfg.MTBFs = []float64{0, 500, 250}
			}
			_, err := experiments.FaultTolerance(w, cfg)
			return err
		case "overload":
			cfg := experiments.DefaultOverloadSweep()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			if *quick {
				cfg.Reps = 1
				cfg.Loads = []float64{0.8, 1.0, 1.3}
			}
			_, err := experiments.OverloadSweep(w, cfg)
			return err
		case "postmortem":
			cfg := experiments.DefaultPostmortem()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			return experiments.Postmortem(w, cfg)
		case "autoscale":
			cfg := experiments.DefaultAutoscale()
			cfg.K, cfg.Seed = *k, *seed
			if *quick {
				cfg.BaseTime, cfg.BurstTime = 60, 30
			}
			_, err := experiments.AutoscaleSweep(w, cfg)
			return err
		case "hedge":
			cfg := experiments.DefaultHedgeTradeoff()
			cfg.M, cfg.K, cfg.N, cfg.Seed = *m, *k, *n, *seed
			if *quick {
				cfg.Reps = 1
			}
			_, err := experiments.HedgeTradeoff(w, cfg)
			return err
		case "metastable":
			// Like autoscale, the cell is timing-shaped: the flap schedule
			// and the post-heal measurement window are absolute instants, so
			// -m/-n would cut the horizon short of the heal. -quick trims
			// repetitions only (the full cell runs in well under a second).
			cfg := experiments.DefaultMetastable()
			cfg.K, cfg.Seed = *k, *seed
			if *quick {
				cfg.Reps = 1
			}
			_, err := experiments.Metastable(w, cfg)
			return err
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5-6", "fig7",
			"fig8", "fig9", "fig10a", "fig10b", "fig11", "extension", "robustness", "convergence", "writes", "drift", "faults", "overload", "postmortem", "autoscale", "hedge", "metastable"}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Fprintf(stdout, "\n%s\n\n", divider)
		}
		if err := render(name); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// quickSizes are the size flags' values under -quick.
var quickSizes = map[string]string{"m": "10", "n": "2000", "reps": "3", "perms": "10"}

// applyQuick gives every size flag the command line did not set its -quick
// value; a flag set explicitly keeps the value it was given.
func applyQuick(fs *flag.FlagSet) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for name, v := range quickSizes {
		if !set[name] {
			if err := fs.Set(name, v); err != nil {
				panic(err)
			}
		}
	}
}

const divider = "================================================================"

// progressReporter builds a stderr progress line for a parallel sweep
// (nil when -progress is off, which disables reporting entirely). The
// carriage-return line is erased by the final newline at completion, so
// stdout tables stay clean.
func progressReporter(stderr io.Writer, enabled bool, label string) parallel.Progress {
	if !enabled {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(stderr, "\r%s: %d/%d", label, done, total)
		if done == total {
			fmt.Fprintln(stderr)
		}
	}
}

func ksUpTo(m int) []int {
	ks := make([]int, m)
	for i := range ks {
		ks[i] = i + 1
	}
	return ks
}

// writeFig10SVGs renders the Figure 10a grids as SVG heat maps when
// -csvdir is set.
func writeFig10SVGs(stdout io.Writer, dir string, data *experiments.Fig10Data) error {
	if dir == "" {
		return nil
	}
	rows := make([]string, len(data.Ss))
	for i, sv := range data.Ss {
		rows[i] = fmt.Sprintf("%.2f", sv)
	}
	cols := make([]string, len(data.Ks))
	for j, kv := range data.Ks {
		cols[j] = fmt.Sprintf("%d", kv)
	}
	for _, grid := range []struct {
		name   string
		values [][]float64
	}{
		{"overlapping", data.Overlapping},
		{"disjoint", data.Disjoint},
	} {
		path := filepath.Join(dir, "fig10a-"+grid.name+".svg")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = flowsched.WriteHeatmapSVG(f, rows, cols, grid.values, 0, 100,
			"Figure 10a — max load % ("+grid.name+")")
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heat map written to %s\n", path)
	}
	return nil
}

// writeCSV writes one experiment's data file when -csvdir is set.
func writeCSV(stdout io.Writer, dir, name string, write func(io.Writer)) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	write(f)
	fmt.Fprintf(stdout, "\ndata written to %s\n", path)
	return nil
}
