package loadlp

import (
	"fmt"
	"testing"

	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// The solver ablation: MaxLoad against the solvers it replaced, on the
// paper's shape (k = 3 overlapping, worst-case Zipf s = 1.25). The simplex
// leg, BenchmarkAblationMaxLoadSimplex, is in internal/lp.

func benchModel(m int) *Model {
	return NewModel(popularity.Zipf(m, 1.25), replicate.Overlapping{K: 3})
}

func BenchmarkMaxLoad(b *testing.B) {
	for _, m := range []int{15, 1000} {
		mo := benchModel(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = mo.MaxLoad()
			}
		})
	}
}

func BenchmarkAblationMaxLoadHall(b *testing.B) {
	mo := benchModel(15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hallOracle(mo)
	}
}

// BenchmarkAblationMaxLoadFlowBisect times bisection on λ to absolute
// precision 1e-8 over the feasibility network MaxLoad cuts: about 30 max
// flows where MaxLoad needs a handful.
func BenchmarkAblationMaxLoadFlowBisect(b *testing.B) {
	mo := benchModel(15)
	total := 0.0
	for _, w := range mo.Weights {
		total += w
	}
	g, src := mo.network()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := 0.0, float64(mo.M)+1
		for hi-lo > 1e-8 {
			mid := (lo + hi) / 2
			mo.setLambda(g, src, mid)
			if g.Run(2*mo.M, 2*mo.M+1).Value >= mid*total-1e-9 {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
}
