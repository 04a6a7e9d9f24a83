package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/loadlp"
	"flowsched/internal/parallel"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/table"
	"flowsched/internal/workload"
)

// Fig11Config controls the Section 7.4 simulations.
type Fig11Config struct {
	M     int       // cluster size (paper: 15)
	K     int       // replication factor (paper: 3)
	N     int       // tasks per run (paper: 10 000)
	Reps  int       // repetitions, median taken (paper: 10)
	SBias float64   // Zipf shape for the biased cases (paper: 1)
	Loads []float64 // average loads λ/m, as fractions
	Seed  int64
	// Workers bounds the parallel fan-out over (case, load) cells
	// (0 = GOMAXPROCS). Results are identical for any worker count: every
	// cell derives its randomness from (Seed, case, load, repetition).
	Workers int
	// Progress, when set, receives completed-cell counts while the sweep
	// runs (calls are serialized; counts only — completion order is
	// scheduling-dependent).
	Progress parallel.Progress
}

// DefaultFig11 returns the paper's configuration.
func DefaultFig11() Fig11Config {
	loads := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00}
	return Fig11Config{M: 15, K: 3, N: 10000, Reps: 10, SBias: 1, Loads: loads, Seed: 1}
}

// Fig11Point is one curve point: median Fmax at one load for one
// (case, heuristic, strategy) combination.
type Fig11Point struct {
	Case      popularity.Case
	Heuristic string // "EFT-Min" or "EFT-Max"
	Strategy  string // "overlapping" or "disjoint"
	LoadPct   float64
	Fmax      float64 // median over repetitions
}

// Fig11Data holds all curves plus the LP max-load verticals per case and
// strategy (the red lines of Figure 11).
type Fig11Data struct {
	Points  []Fig11Point
	MaxLoad map[string]float64 // "case/strategy" -> theoretical max load %
}

// subRng derives an independent random stream from the master seed and a
// list of coordinates (splitmix64-style mixing), so parallel cells are
// deterministic regardless of scheduling order.
func subRng(seed int64, coords ...int64) *rand.Rand {
	z := uint64(seed)
	for _, c := range coords {
		z ^= uint64(c) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return rand.New(rand.NewSource(int64(z)))
}

var fig11Ties = []struct {
	name string
	tie  sched.TieBreak
}{
	{"EFT-Min", sched.MinTie{}},
	{"EFT-Max", sched.MaxTie{}},
}

func fig11Strategies(k int) []replicate.Strategy {
	return []replicate.Strategy{
		replicate.Overlapping{K: k},
		replicate.Disjoint{K: k},
	}
}

// SweepFig11 runs the Figure 11 protocol: for each popularity case
// (Uniform, Shuffled s, Worst-case s), each replication strategy
// (overlapping, disjoint) and each heuristic (EFT-Min, EFT-Max), simulate N
// Poisson unit tasks at every load and report the median Fmax over Reps
// repetitions. Within a repetition the arrival process and the sampled
// primaries are shared across strategies and heuristics (paired
// comparison); Shuffled repetitions redraw the permutation. Cells run in
// parallel with per-cell derived seeds.
func SweepFig11(cfg Fig11Config) (*Fig11Data, error) {
	data := &Fig11Data{MaxLoad: make(map[string]float64)}
	cases := []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst}
	strategies := fig11Strategies(cfg.K)

	// LP verticals.
	for ci, c := range cases {
		for si, strat := range strategies {
			key := fmt.Sprintf("%s/%s", c, stratLabel(strat))
			data.MaxLoad[key] = theoreticalMaxLoadPct(c, cfg, strat, subRng(cfg.Seed, 1, int64(ci), int64(si)))
		}
	}

	// Simulation cells: one job per (case, load).
	type cell struct {
		ci, li int
	}
	var cells []cell
	for ci := range cases {
		for li := range cfg.Loads {
			cells = append(cells, cell{ci, li})
		}
	}
	type cellResult struct {
		points []Fig11Point
	}
	results, err := parallel.MapErrProgress(len(cells), cfg.Workers, cfg.Progress, func(x int) (cellResult, error) {
		ci, li := cells[x].ci, cells[x].li
		c := cases[ci]
		load := cfg.Loads[li]
		rate := workload.RateForLoad(load, cfg.M)
		fmaxes := make(map[string][]float64)
		for rep := 0; rep < cfg.Reps; rep++ {
			weights := popularity.Weights(c, cfg.M, cfg.SBias,
				subRng(cfg.Seed, 2, int64(ci), int64(li), int64(rep)))
			// Shared arrival process + primaries for the paired comparison.
			arrRng := subRng(cfg.Seed, 3, int64(ci), int64(li), int64(rep))
			releases, primaries := drawArrivals(cfg.N, rate, weights, arrRng)
			for _, strat := range strategies {
				inst := instanceFor(cfg.M, releases, primaries, strat)
				for _, tb := range fig11Ties {
					_, metrics, err := sim.Run(inst, sim.EFTRouter{Tie: tb.tie})
					if err != nil {
						return cellResult{}, err
					}
					key := stratLabel(strat) + "/" + tb.name
					fmaxes[key] = append(fmaxes[key], float64(metrics.MaxFlow()))
				}
			}
		}
		var out cellResult
		for _, strat := range strategies {
			for _, tb := range fig11Ties {
				key := stratLabel(strat) + "/" + tb.name
				out.points = append(out.points, Fig11Point{
					Case:      c,
					Heuristic: tb.name,
					Strategy:  stratLabel(strat),
					LoadPct:   load * 100,
					Fmax:      stats.Median(fmaxes[key]),
				})
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		data.Points = append(data.Points, r.points...)
	}
	return data, nil
}

// drawArrivals samples the Poisson release times and popularity-weighted
// primary machines shared by all strategies of one repetition.
func drawArrivals(n int, rate float64, weights []float64, rng *rand.Rand) ([]core.Time, []int) {
	sampler := popularity.NewSampler(weights)
	releases := make([]core.Time, n)
	primaries := make([]int, n)
	t := core.Time(0)
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		releases[i] = t
		primaries[i] = sampler.Sample(rng)
	}
	return releases, primaries
}

// instanceFor applies a replication strategy to a shared arrival pattern in
// one pass: drawArrivals' releases are already in order, so
// core.AdoptInstance keeps the tasks as they are, and the tasks of one
// primary share its set.
func instanceFor(m int, releases []core.Time, primaries []int, strat replicate.Strategy) *core.Instance {
	sets := replicate.NewTable(strat, m)
	tasks := make([]core.Task, len(releases))
	for i := range tasks {
		tasks[i] = core.Task{
			Release: releases[i],
			Proc:    1,
			Set:     sets.Set(primaries[i]),
			Key:     primaries[i],
		}
	}
	return core.AdoptInstance(m, tasks)
}

func stratLabel(s replicate.Strategy) string {
	switch s.(type) {
	case replicate.Overlapping:
		return "overlapping"
	case replicate.Disjoint:
		return "disjoint"
	default:
		return s.Name()
	}
}

// theoreticalMaxLoadPct computes the red vertical of Figure 11: the LP (15)
// maximum load of the case, as a percentage (median over 100 permutations
// for the Shuffled case).
func theoreticalMaxLoadPct(c popularity.Case, cfg Fig11Config, strat replicate.Strategy, rng *rand.Rand) float64 {
	solve := func(w []float64) float64 {
		mo := loadlp.NewModel(w, strat)
		return mo.MaxLoadPercent(mo.MaxLoad())
	}
	switch c {
	case popularity.Shuffled:
		vals := make([]float64, 0, 100)
		for p := 0; p < 100; p++ {
			vals = append(vals, solve(popularity.Weights(c, cfg.M, cfg.SBias, rng)))
		}
		return stats.Median(vals)
	default:
		return solve(popularity.Weights(c, cfg.M, cfg.SBias, rng))
	}
}

// Figure11 runs the sweep and prints one table per popularity case with the
// four curves (heuristic × strategy) and the LP verticals.
func Figure11(w io.Writer, cfg Fig11Config) (*Fig11Data, error) {
	data, err := SweepFig11(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 11 — median Fmax vs average load; m=%d, k=%d, n=%d, %d repetitions, s=%v for biased cases\n",
		cfg.M, cfg.K, cfg.N, cfg.Reps, cfg.SBias)
	for _, c := range []popularity.Case{popularity.Uniform, popularity.Shuffled, popularity.Worst} {
		fmt.Fprintf(w, "\n%s case (theoretical max load: overlapping %.0f%%, disjoint %.0f%%):\n",
			c,
			data.MaxLoad[fmt.Sprintf("%s/overlapping", c)],
			data.MaxLoad[fmt.Sprintf("%s/disjoint", c)])
		out := table.New("load %", "EFT-Min/overlap", "EFT-Max/overlap", "EFT-Min/disjoint", "EFT-Max/disjoint")
		for _, load := range cfg.Loads {
			row := []interface{}{fmt.Sprintf("%.0f", load*100)}
			for _, combo := range []struct{ strat, tie string }{
				{"overlapping", "EFT-Min"}, {"overlapping", "EFT-Max"},
				{"disjoint", "EFT-Min"}, {"disjoint", "EFT-Max"},
			} {
				v := lookupPoint(data, c, combo.tie, combo.strat, load*100)
				row = append(row, v)
			}
			out.AddRow(row...)
		}
		out.Render(w)
	}
	return data, nil
}

func lookupPoint(d *Fig11Data, c popularity.Case, tie, strat string, loadPct float64) float64 {
	for _, p := range d.Points {
		if p.Case == c && p.Heuristic == tie && p.Strategy == strat && p.LoadPct == loadPct {
			return p.Fmax
		}
	}
	return -1
}
