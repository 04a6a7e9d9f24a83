package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"flowsched/internal/loadlp"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/stats"
	"flowsched/internal/table"
	"flowsched/internal/workload"
)

// ExtensionConfig controls the replication-strategy ablation around the
// paper's open question (Section 8): is there a strategy with both good
// practical behavior and worst-case guarantees?
type ExtensionConfig struct {
	M, K  int
	N     int
	Reps  int
	SBias float64
	Load  float64 // average load fraction for the simulation column
	Seed  int64
}

// DefaultExtension returns the default ablation configuration.
func DefaultExtension() ExtensionConfig {
	return ExtensionConfig{M: 15, K: 3, N: 10000, Reps: 10, SBias: 1, Load: 0.6, Seed: 1}
}

// ExtensionRow summarizes one strategy in the ablation.
type ExtensionRow struct {
	Strategy    string
	MaxLoadPct  float64 // median theoretical max load (Shuffled case)
	FmaxEFT     float64 // median simulated Fmax under EFT-Min at cfg.Load
	FmaxJSQ     float64 // same under the non-clairvoyant JSQ router
	WorstGuided string  // the known worst-case guarantee for EFT
}

// ExtensionStrategies compares the paper's two strategies with the
// extensions (random-k sets and offset-disjoint blocks) on both axes of the
// paper's trade-off: the theoretical max load (Figure 10 axis) and the
// simulated Fmax under load (Figure 11 axis), for the clairvoyant EFT-Min
// router and the non-clairvoyant JSQ router.
func ExtensionStrategies(w io.Writer, cfg ExtensionConfig) ([]ExtensionRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mk := func(name string) replicate.Strategy {
		switch name {
		case "overlapping":
			return replicate.Overlapping{K: cfg.K}
		case "disjoint":
			return replicate.Disjoint{K: cfg.K}
		case "offset-disjoint":
			return replicate.OffsetDisjoint{K: cfg.K, Offset: cfg.K / 2}
		case "random-k":
			return replicate.NewRandomK(cfg.K, rand.New(rand.NewSource(cfg.Seed+7)))
		}
		panic("unknown strategy " + name)
	}
	guarantees := map[string]string{
		"overlapping":     fmt.Sprintf(">= m-k+1 = %d (Th. 8-10)", cfg.M-cfg.K+1),
		"disjoint":        fmt.Sprintf("3-2/k = %.2f (Cor. 1)", 3-2/float64(cfg.K)),
		"offset-disjoint": fmt.Sprintf("3-2/k = %.2f (Cor. 1, disjoint family)", 3-2/float64(cfg.K)),
		"random-k":        ">= Ω(m) (Anand et al., unstructured)",
	}

	var rows []ExtensionRow
	for _, name := range []string{"overlapping", "disjoint", "offset-disjoint", "random-k"} {
		// Median theoretical max load over permutations (Shuffled case).
		loads := make([]float64, 0, 50)
		for p := 0; p < 50; p++ {
			wts := popularity.Weights(popularity.Shuffled, cfg.M, cfg.SBias, rng)
			mo := loadlp.NewModel(wts, mk(name))
			loads = append(loads, mo.MaxLoadPercent(mo.MaxLoad()))
		}

		// Simulated Fmax at cfg.Load.
		var eftF, jsqF []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			wts := popularity.Weights(popularity.Shuffled, cfg.M, cfg.SBias, rng)
			inst, err := workload.Generate(workload.Config{
				M: cfg.M, N: cfg.N, Rate: workload.RateForLoad(cfg.Load, cfg.M),
				Weights: wts, Strategy: mk(name),
			}, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			_, me, err := sim.Run(inst, sim.EFTRouter{Tie: sched.MinTie{}})
			if err != nil {
				return nil, err
			}
			_, mj, err := sim.Run(inst, sim.JSQRouter{})
			if err != nil {
				return nil, err
			}
			eftF = append(eftF, float64(me.MaxFlow()))
			jsqF = append(jsqF, float64(mj.MaxFlow()))
		}
		rows = append(rows, ExtensionRow{
			Strategy:    name,
			MaxLoadPct:  stats.Median(loads),
			FmaxEFT:     stats.Median(eftF),
			FmaxJSQ:     stats.Median(jsqF),
			WorstGuided: guarantees[name],
		})
	}

	fmt.Fprintf(w, "Extension — replication strategy ablation (m=%d, k=%d, Shuffled s=%v, load %.0f%%):\n",
		cfg.M, cfg.K, cfg.SBias, cfg.Load*100)
	out := table.New("strategy", "max load % (median)", "Fmax EFT-Min", "Fmax JSQ", "EFT worst-case guarantee")
	for _, r := range rows {
		out.AddRow(r.Strategy, r.MaxLoadPct, r.FmaxEFT, r.FmaxJSQ, r.WorstGuided)
	}
	out.Render(w)
	fmt.Fprintln(w, "\nThe open question of Section 8: no row has both the overlapping max-load column and the disjoint guarantee column.")
	return rows, nil
}
