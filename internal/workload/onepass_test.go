package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
)

// The generators build each instance in one pass: one set per primary, and
// tasks adopted in the order they were written. The oracles below are the
// per-task constructions they replaced — a strategy call per task and
// core.NewInstance's copy and stable sort — and every generated instance
// must be reflect.DeepEqual to its oracle's.

func oracleGenerate(cfg Config, rng *rand.Rand) *core.Instance {
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	weights := cfg.Weights
	if weights == nil {
		weights = popularity.Zipf(cfg.M, 0)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}
	sampler := popularity.NewSampler(weights)
	drawProc := func() core.Time {
		switch cfg.Dist {
		case ProcExponential:
			return proc * rng.ExpFloat64()
		case ProcUniform:
			return 2 * proc * rng.Float64()
		default:
			return proc
		}
	}
	tasks := make([]core.Task, cfg.N)
	t := core.Time(0)
	for i := range tasks {
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		p := drawProc()
		for p <= 0 {
			p = drawProc()
		}
		tasks[i] = core.Task{Release: t, Proc: p, Set: strategy.Set(primary, cfg.M), Key: primary}
	}
	return core.NewInstance(cfg.M, tasks)
}

func oracleMixed(cfg MixedConfig, rng *rand.Rand) *core.Instance {
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	weights := cfg.Weights
	if weights == nil {
		weights = popularity.Zipf(cfg.M, 0)
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}
	sampler := popularity.NewSampler(weights)
	var tasks []core.Task
	t := core.Time(0)
	for i := 0; i < cfg.N; i++ {
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		set := strategy.Set(primary, cfg.M)
		if rng.Float64() < cfg.WriteFraction {
			for _, j := range set {
				tasks = append(tasks, core.Task{Release: t, Proc: proc, Set: core.NewProcSet(j), Key: primary})
			}
		} else {
			tasks = append(tasks, core.Task{Release: t, Proc: proc, Set: set, Key: primary})
		}
	}
	return core.NewInstance(cfg.M, tasks)
}

func oracleDrift(cfg DriftConfig, rng *rand.Rand) *core.Instance {
	proc := cfg.Proc
	if proc == 0 {
		proc = 1
	}
	strategy := cfg.Strategy
	if strategy == nil {
		strategy = replicate.None{}
	}
	tasks := make([]core.Task, cfg.N)
	t := core.Time(0)
	perSegment := cfg.N / cfg.Segments
	if perSegment == 0 {
		perSegment = 1
	}
	var sampler *popularity.Sampler
	for i := range tasks {
		if i%perSegment == 0 || sampler == nil {
			sampler = popularity.NewSampler(popularity.Weights(popularity.Shuffled, cfg.M, cfg.SBias, rng))
		}
		t += rng.ExpFloat64() / cfg.Rate
		primary := sampler.Sample(rng)
		tasks[i] = core.Task{Release: t, Proc: proc, Set: strategy.Set(primary, cfg.M), Key: primary}
	}
	return core.NewInstance(cfg.M, tasks)
}

// strategyCase builds a fresh strategy from a seed, so that a RandomK is
// built twice from one seed — once for the generator, once for its oracle
// — and the two agree only if both draw its sets in the same order. With
// shared, the RandomK draws from the generator's own rng, as chaos trials
// draw it, which pins its draws between the arrival draws as well.
type strategyCase struct {
	name   string
	shared bool
	build  func(k, m int, rng *rand.Rand) replicate.Strategy
}

func strategyCases() []strategyCase {
	return []strategyCase{
		{name: "nil", build: func(k, m int, _ *rand.Rand) replicate.Strategy { return nil }},
		{name: "none", build: func(k, m int, _ *rand.Rand) replicate.Strategy { return replicate.None{} }},
		{name: "overlapping", build: func(k, m int, _ *rand.Rand) replicate.Strategy { return replicate.Overlapping{K: k} }},
		{name: "disjoint", build: func(k, m int, _ *rand.Rand) replicate.Strategy { return replicate.Disjoint{K: k} }},
		{name: "offset-disjoint", build: func(k, m int, _ *rand.Rand) replicate.Strategy {
			return replicate.OffsetDisjoint{K: k, Offset: m / 2}
		}},
		{name: "random", build: func(k, m int, rng *rand.Rand) replicate.Strategy { return replicate.NewRandomK(k, rng) }},
		{name: "random-shared-rng", shared: true, build: func(k, m int, rng *rand.Rand) replicate.Strategy {
			return replicate.NewRandomK(k, rng)
		}},
	}
}

// shape is one (m, k, n, rate) of the oracle comparisons.
type shape struct {
	m, k, n int
	rate    float64
}

func oracleShapes() []shape {
	shapes := []shape{
		{m: 15, k: 3, n: 2000, rate: 12},
		{m: 15, k: 3, n: 0, rate: 12},
		{m: 1, k: 1, n: 300, rate: 0.7},
		{m: 7, k: 7, n: 500, rate: 5},
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 12; i++ {
		m := 1 + rng.Intn(40)
		shapes = append(shapes, shape{m: m, k: 1 + rng.Intn(m), n: rng.Intn(1500), rate: 0.1 + rng.Float64()*float64(2*m)})
	}
	return shapes
}

// checkOracle builds one instance with gen and one with oracle, each from a
// fresh generator rng and a fresh strategy built from the same seed, fails
// unless the two are equal, and returns gen's.
func checkOracle(t *testing.T, name string, sc strategyCase, seed int64, k, m int,
	gen, oracle func(strategy replicate.Strategy, rng *rand.Rand) *core.Instance) *core.Instance {
	t.Helper()
	build := func(f func(replicate.Strategy, *rand.Rand) *core.Instance) *core.Instance {
		rng := rand.New(rand.NewSource(seed))
		srng := rand.New(rand.NewSource(seed ^ 0x51e7))
		if sc.shared {
			srng = rng
		}
		return f(sc.build(k, m, srng), rng)
	}
	got, want := build(gen), build(oracle)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: one-pass instance differs from the per-task construction", name)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return got
}

// checkShared fails unless every pair of tasks with the same key holds the
// same set value, and the non-empty sets of one key one backing array.
func checkShared(t *testing.T, name string, inst *core.Instance) {
	t.Helper()
	byKey := map[int]core.ProcSet{}
	for i, task := range inst.Tasks {
		s, seen := byKey[task.Key]
		if !seen {
			byKey[task.Key] = task.Set
			continue
		}
		if (s == nil) != (task.Set == nil) || (len(s) > 0 && &s[0] != &task.Set[0]) {
			t.Fatalf("%s: task %d of key %d does not share its key's set", name, i, task.Key)
		}
	}
}

func TestGenerateMatchesPerTaskOracle(t *testing.T) {
	for si, sh := range oracleShapes() {
		for _, sc := range strategyCases() {
			for _, dist := range []Dist{ProcConstant, ProcExponential, ProcUniform} {
				name := fmt.Sprintf("%s/dist %d/m %d k %d n %d", sc.name, dist, sh.m, sh.k, sh.n)
				var weights []float64
				if si%2 == 1 {
					weights = popularity.Zipf(sh.m, 1)
				}
				cfg := func(s replicate.Strategy) Config {
					return Config{M: sh.m, N: sh.n, Rate: sh.rate, Dist: dist, Weights: weights, Strategy: s}
				}
				inst := checkOracle(t, name, sc, int64(100*si+int(dist)), sh.k, sh.m,
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance {
						inst, err := Generate(cfg(s), rng)
						if err != nil {
							t.Fatal(err)
						}
						return inst
					},
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance { return oracleGenerate(cfg(s), rng) })
				checkShared(t, name, inst)
			}
		}
	}
}

func TestGenerateMixedMatchesPerTaskOracle(t *testing.T) {
	for si, sh := range oracleShapes() {
		for _, sc := range strategyCases() {
			for _, wf := range []float64{0, 0.3, 1} {
				name := fmt.Sprintf("%s/writes %v/m %d k %d n %d", sc.name, wf, sh.m, sh.k, sh.n)
				cfg := func(s replicate.Strategy) MixedConfig {
					return MixedConfig{M: sh.m, N: sh.n, Rate: sh.rate, WriteFraction: wf, Strategy: s}
				}
				checkOracle(t, name, sc, int64(7*si+1), sh.k, sh.m,
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance {
						inst, err := GenerateMixed(cfg(s), rng)
						if err != nil {
							t.Fatal(err)
						}
						return inst
					},
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance { return oracleMixed(cfg(s), rng) })
			}
		}
	}
	// A caller's strategy may return a member outside [0, m). The write
	// pinned to it gets its own set, as in the per-task construction, and
	// Validate rejects the instance instead of the generator panicking.
	for _, member := range []int{-1, 5, 1 << 40} {
		cfg := MixedConfig{M: 5, N: 300, Rate: 3, WriteFraction: 0.5, Strategy: strayStrategy{member}}
		got, err := GenerateMixed(cfg, rand.New(rand.NewSource(int64(member))))
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleMixed(cfg, rand.New(rand.NewSource(int64(member)))); !reflect.DeepEqual(got, want) {
			t.Fatalf("stray member %d: one-pass instance differs from the per-task construction", member)
		}
		if got.Validate() == nil {
			t.Fatalf("stray member %d: Validate accepts the instance", member)
		}
	}
}

// strayStrategy adds one member to every primary's set, out of range when
// member lies outside [0, m).
type strayStrategy struct{ member int }

func (strayStrategy) Name() string                { return "stray" }
func (s strayStrategy) Set(u, m int) core.ProcSet { return core.NewProcSet(u, s.member) }

func TestGenerateDriftMatchesPerTaskOracle(t *testing.T) {
	for si, sh := range oracleShapes() {
		for _, sc := range strategyCases() {
			for _, segments := range []int{1, 4, 5000} {
				name := fmt.Sprintf("%s/segments %d/m %d k %d n %d", sc.name, segments, sh.m, sh.k, sh.n)
				cfg := func(s replicate.Strategy) DriftConfig {
					return DriftConfig{M: sh.m, N: sh.n, Rate: sh.rate, SBias: 1, Segments: segments, Strategy: s}
				}
				inst := checkOracle(t, name, sc, int64(11*si+3), sh.k, sh.m,
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance {
						inst, err := GenerateDrift(cfg(s), rng)
						if err != nil {
							t.Fatal(err)
						}
						return inst
					},
					func(s replicate.Strategy, rng *rand.Rand) *core.Instance { return oracleDrift(cfg(s), rng) })
				checkShared(t, name, inst)
			}
		}
	}
}

func TestGenerateKeysWritesFinalIDs(t *testing.T) {
	for _, vnodes := range []int{0, 8} {
		for _, n := range []int{0, 1, 3000} {
			kw, err := GenerateKeys(KeyConfig{M: 12, N: n, Rate: 9, NumKeys: 200, KeyBias: 1, K: 3, VNodes: vnodes},
				rand.New(rand.NewSource(int64(n+vnodes))))
			if err != nil {
				t.Fatal(err)
			}
			if want := core.NewInstance(kw.Inst.M, kw.Inst.Tasks); !reflect.DeepEqual(kw.Inst, want) {
				t.Fatalf("vnodes %d, n %d: instance differs from core.NewInstance of its tasks", vnodes, n)
			}
		}
	}
}

// TestGenerateAllocs: Generate allocates per distinct set, not per task —
// the same count at n = 10³ and 10⁴, within a budget linear in m. Each
// count is the least of three measurements: a call at n = 10⁴ allocates
// 640 KB of tasks and so runs the collector, and about one measurement in
// thirty then counts an allocation the runtime made meanwhile.
func TestGenerateAllocs(t *testing.T) {
	const m = 15
	allocs := func(n int) float64 {
		least := math.Inf(1)
		for try := 0; try < 3; try++ {
			least = math.Min(least, testing.AllocsPerRun(5, func() {
				rng := rand.New(rand.NewSource(1))
				if _, err := Generate(Config{M: m, N: n, Rate: 0.8 * m, Strategy: replicate.Overlapping{K: 3}}, rng); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	small, big := allocs(1000), allocs(10000)
	t.Logf("allocations per Generate: %.0f at n = 1,000, %.0f at n = 10,000 (m = %d)", small, big, m)
	if small != big {
		t.Errorf("allocations grow with n: %.0f at n = 1,000, %.0f at n = 10,000", small, big)
	}
	if budget := float64(2*m + 16); big > budget {
		t.Errorf("%.0f allocations at m = %d, budget %.0f", big, m, budget)
	}
}
