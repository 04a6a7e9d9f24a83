// Command maxload solves the max-load Linear Program (15) of the paper for
// a popularity-biased cluster, for every replication factor k of the
// overlapping and disjoint strategies. The solver (flowsched.MaxLoad, a
// parametric minimum cut) is exact at any cluster size; its cross-checks
// against the simplex and the Hall enumeration are tests.
//
//	maxload -m 15 -s 1.25 [-case worst|uniform|shuffled] [-seed 1] [-csv]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"flowsched"
	"flowsched/internal/table"
)

func main() {
	m := flag.Int("m", 15, "cluster size")
	s := flag.Float64("s", 1.25, "Zipf popularity bias")
	caseName := flag.String("case", "worst", "popularity case: uniform|worst|shuffled")
	seed := flag.Int64("seed", 1, "random seed (shuffled case)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "maxload: "+format+"\n", args...)
		os.Exit(2)
	}
	if *m < 1 {
		usageErr("-m must be at least 1, got %d", *m)
	}
	if !(*s >= 0) {
		usageErr("-s must be non-negative, got %v", *s)
	}
	var pcase flowsched.PopularityCase
	switch *caseName {
	case "uniform":
		pcase = flowsched.PopularityUniform
	case "worst":
		pcase = flowsched.PopularityWorst
	case "shuffled":
		pcase = flowsched.PopularityShuffled
	default:
		usageErr("unknown case %q", *caseName)
	}
	rng := rand.New(rand.NewSource(*seed))
	weights := flowsched.PopularityWeights(pcase, *m, *s, rng)

	fmt.Printf("max-load analysis (LP (15)): m=%d, case=%s, s=%v\n\n", *m, pcase, *s)
	out := table.New("k", "overlapping %", "disjoint %", "gain")
	for k := 1; k <= *m; k++ {
		ov := flowsched.MaxLoad(weights, flowsched.OverlappingReplication(k))
		dj := flowsched.MaxLoad(weights, flowsched.DisjointReplication(k))
		out.AddRow(k,
			fmt.Sprintf("%.1f", flowsched.MaxLoadPercent(ov, *m)),
			fmt.Sprintf("%.1f", flowsched.MaxLoadPercent(dj, *m)),
			fmt.Sprintf("%.2fx", ov/dj))
	}
	if *csv {
		out.RenderCSV(os.Stdout)
	} else {
		out.Render(os.Stdout)
	}
}
