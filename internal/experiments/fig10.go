package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"flowsched/internal/loadlp"
	"flowsched/internal/parallel"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/stats"
	"flowsched/internal/table"
)

// Fig10Config controls the max-load sweep of Figures 10a/10b.
type Fig10Config struct {
	M     int     // cluster size (paper: 15)
	SMin  float64 // popularity bias range (paper: 0..5, step 0.25)
	SMax  float64
	SStep float64
	Ks    []int // interval sizes (paper: 1..m)
	Perms int   // permutations per cell in the Shuffled case (paper: 100)
	Seed  int64
	// Workers bounds the parallel fan-out over s rows (0 = GOMAXPROCS);
	// output is identical for any worker count.
	Workers int
}

// DefaultFig10 returns the paper's configuration.
func DefaultFig10() Fig10Config {
	ks := make([]int, 15)
	for i := range ks {
		ks[i] = i + 1
	}
	return Fig10Config{M: 15, SMin: 0, SMax: 5, SStep: 0.25, Ks: ks, Perms: 100, Seed: 1}
}

// Fig10Data holds the sweep results: median max-load percentages indexed by
// [s index][k index] for each strategy.
type Fig10Data struct {
	Ss          []float64
	Ks          []int
	Overlapping [][]float64 // median max-load %
	Disjoint    [][]float64
}

// Ratio returns the Figure 10b matrix: overlapping/disjoint per cell.
func (d *Fig10Data) Ratio() [][]float64 {
	out := make([][]float64, len(d.Ss))
	for i := range out {
		out[i] = make([]float64, len(d.Ks))
		for j := range out[i] {
			if d.Disjoint[i][j] > 0 {
				out[i][j] = d.Overlapping[i][j] / d.Disjoint[i][j]
			}
		}
	}
	return out
}

// MaxRatio returns the largest overlapping/disjoint gain of the sweep and
// its (s, k) location.
func (d *Fig10Data) MaxRatio() (best float64, sAt float64, kAt int) {
	r := d.Ratio()
	for i, s := range d.Ss {
		for j, k := range d.Ks {
			if r[i][j] > best {
				best, sAt, kAt = r[i][j], s, k
			}
		}
	}
	return best, sAt, kAt
}

// SweepFig10 computes the Figure 10 data: for every bias s and interval
// size k, the median (over Perms random permutations, Shuffled case) of the
// theoretical maximum load of LP (15) for both replication strategies. The
// same permutations are used for every cell and both strategies, as needed
// for a meaningful Figure 10b ratio.
func SweepFig10(cfg Fig10Config) (*Fig10Data, error) {
	if cfg.M < 1 {
		return nil, fmt.Errorf("experiments: Fig10 needs m ≥ 1, got %d", cfg.M)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perms := make([][]int, cfg.Perms)
	for p := range perms {
		perms[p] = rng.Perm(cfg.M)
	}

	var ss []float64
	for s := cfg.SMin; s <= cfg.SMax+1e-9; s += cfg.SStep {
		ss = append(ss, s)
	}
	data := &Fig10Data{
		Ss:          ss,
		Ks:          cfg.Ks,
		Overlapping: make([][]float64, len(ss)),
		Disjoint:    make([][]float64, len(ss)),
	}
	// Rows (one per s value) are independent; fan them out. Each row only
	// writes its own slices, and the shared permutations are read-only.
	parallel.ForEach(len(ss), cfg.Workers, func(i int) {
		s := ss[i]
		data.Overlapping[i] = make([]float64, len(cfg.Ks))
		data.Disjoint[i] = make([]float64, len(cfg.Ks))
		base := popularity.Zipf(cfg.M, s)
		for j, k := range cfg.Ks {
			ovs := make([]float64, 0, cfg.Perms)
			djs := make([]float64, 0, cfg.Perms)
			for _, perm := range perms {
				w := make([]float64, cfg.M)
				for x, px := range perm {
					w[x] = base[px]
				}
				ov := loadlp.NewModel(w, replicate.Overlapping{K: k})
				dj := loadlp.NewModel(w, replicate.Disjoint{K: k})
				ovs = append(ovs, ov.MaxLoadPercent(ov.MaxLoad()))
				djs = append(djs, dj.MaxLoadPercent(dj.MaxLoad()))
			}
			data.Overlapping[i][j] = stats.Median(ovs)
			data.Disjoint[i][j] = stats.Median(djs)
		}
	})
	return data, nil
}

// Figure10a prints the median max-load sweep (the heat map of Figure 10a)
// as two tables, one per strategy.
func Figure10a(w io.Writer, cfg Fig10Config) (*Fig10Data, error) {
	data, err := SweepFig10(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 10a — median max-load %% (Shuffled case, m=%d, %d permutations)\n",
		cfg.M, cfg.Perms)
	for _, strat := range []struct {
		name string
		grid [][]float64
	}{
		{"Overlapping", data.Overlapping},
		{"Disjoint", data.Disjoint},
	} {
		fmt.Fprintf(w, "\n%s:\n", strat.name)
		header := []string{"s \\ k"}
		for _, k := range data.Ks {
			header = append(header, fmt.Sprintf("%d", k))
		}
		out := table.New(header...)
		for i, s := range data.Ss {
			row := make([]interface{}, 0, len(data.Ks)+1)
			row = append(row, fmt.Sprintf("%.2f", s))
			for j := range data.Ks {
				row = append(row, fmt.Sprintf("%.0f", strat.grid[i][j]))
			}
			out.AddRow(row...)
		}
		out.Render(w)

		// The same grid as an ASCII heat map (darker = higher load), the
		// terminal rendering of the paper's color map.
		hm := &table.Heatmap{
			RowLabel: "s\\k", ColLabel: "k: last digit per column",
			Rows:   make([]string, len(data.Ss)),
			Cols:   make([]string, len(data.Ks)),
			Values: strat.grid,
			Lo:     0, Hi: 100,
		}
		for i, s := range data.Ss {
			hm.Rows[i] = fmt.Sprintf("%.2f", s)
		}
		for j, k := range data.Ks {
			hm.Cols[j] = fmt.Sprintf("%d", k)
		}
		fmt.Fprintln(w)
		hm.Render(w)
	}
	return data, nil
}

// Figure10b prints the overlapping/disjoint gain matrix and its maximum
// (the paper reports gains up to ~1.5×).
func Figure10b(w io.Writer, cfg Fig10Config) (*Fig10Data, error) {
	data, err := SweepFig10(cfg)
	if err != nil {
		return nil, err
	}
	RenderFig10b(w, data, cfg)
	return data, nil
}

// RenderFig10b prints the Figure 10b ratio matrix for precomputed data.
func RenderFig10b(w io.Writer, data *Fig10Data, cfg Fig10Config) {
	ratio := data.Ratio()
	fmt.Fprintf(w, "Figure 10b — max-load ratio overlapping/disjoint (m=%d, %d permutations)\n\n", cfg.M, cfg.Perms)
	header := []string{"s \\ k"}
	for _, k := range data.Ks {
		header = append(header, fmt.Sprintf("%d", k))
	}
	out := table.New(header...)
	for i, s := range data.Ss {
		row := make([]interface{}, 0, len(data.Ks)+1)
		row = append(row, fmt.Sprintf("%.2f", s))
		for j := range data.Ks {
			row = append(row, fmt.Sprintf("%.2f", ratio[i][j]))
		}
		out.AddRow(row...)
	}
	out.Render(w)
	best, sAt, kAt := data.MaxRatio()
	fmt.Fprintf(w, "\nlargest gain: %.2fx at s=%.2f, k=%d (paper: up to ~1.5x around s=1.25, k=6)\n", best, sAt, kAt)
}
