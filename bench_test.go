// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating its data at reduced size — run cmd/experiments
// for paper-sized output) plus the ablation benches called out in
// DESIGN.md §4.
package flowsched_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"flowsched"
	"flowsched/internal/benchreg"
	"flowsched/internal/experiments"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// --- Table 1: FIFO (3 − 2/m) verification --------------------------------

func BenchmarkTable1FIFORatio(b *testing.B) {
	cfg := experiments.Table1Config{Ms: []int{1, 2, 3}, N: 8, Trials: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: one bench per theorem row ----------------------------------

func BenchmarkTable2Theorem3Inclusive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryInclusive(flowsched.NewEFT(flowsched.TieMin), 16, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem4FixedK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryFixedSizeK(flowsched.NewEFT(flowsched.TieMin), 16, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem5Nested(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryNested(flowsched.NewEFT(flowsched.TieMin), 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem7Interval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryInterval(flowsched.NewEFT(flowsched.TieMin), 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem8Stream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryEFTStream(flowsched.TieMin, 10, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem9StreamRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tie := flowsched.TieRand(rand.New(rand.NewSource(int64(i))))
		if _, err := flowsched.AdversaryEFTStream(tie, 10, 3, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Theorem10Padded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.AdversaryEFTStreamPadded(flowsched.TieMax, 10, 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures --------------------------------------------------------------

func BenchmarkFig1StructureClassify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard, 12, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3AdversarySchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure3(io.Discard, 6, 3, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ProfileConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure4(io.Discard, 8, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8PopularityDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure8(io.Discard, 6, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ReplicationExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure9(io.Discard, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func fig10Bench() experiments.Fig10Config {
	return experiments.Fig10Config{M: 10, SMin: 0, SMax: 2, SStep: 0.5,
		Ks: []int{1, 2, 3, 5, 10}, Perms: 10, Seed: 1}
}

func BenchmarkFig10aMaxLoadSweep(b *testing.B) {
	cfg := fig10Bench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepFig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10bGainMatrix(b *testing.B) {
	cfg := fig10Bench()
	data, err := experiments.SweepFig10(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := data.Ratio(); len(r) == 0 {
			b.Fatal("empty ratio")
		}
	}
}

func BenchmarkFig11Simulation(b *testing.B) {
	cfg := experiments.Fig11Config{M: 10, K: 3, N: 2000, Reps: 2, SBias: 1,
		Loads: []float64{0.5, 0.9}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepFig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ----------------------------------------------

// benchInstance builds an unrestricted Poisson instance for dispatch
// benches (nil processing sets, unlike workload.Generate whose default
// strategy pins each task to its primary).
func benchInstance(m, n int) *flowsched.Instance {
	rng := rand.New(rand.NewSource(7))
	tasks := make([]flowsched.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / (0.9 * float64(m))
		tasks[i] = flowsched.Task{Release: t, Proc: 1}
	}
	return flowsched.NewInstance(m, tasks)
}

func BenchmarkAblationEFTDispatchLinear(b *testing.B) {
	inst := benchInstance(256, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewEFT(sched.MinTie{}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func restrictedInstance(m, k, n int) *flowsched.Instance {
	rng := rand.New(rand.NewSource(7))
	inst, err := workload.Generate(workload.Config{
		M: m, N: n, Rate: 0.8 * float64(m),
		Weights:  popularity.Weights(popularity.Shuffled, m, 1, rng),
		Strategy: replicate.Overlapping{K: k},
	}, rng)
	if err != nil {
		panic(err)
	}
	return inst
}

func BenchmarkAblationTieBreakMin(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewEFT(sched.MinTie{}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTieBreakMax(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewEFT(sched.MaxTie{}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTieBreakRand(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.NewEFT(sched.RandTie{Rng: rng}).Run(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRouterEFT(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(inst, sim.EFTRouter{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRouterJSQ(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(inst, sim.JSQRouter{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationExtensionStrategies(b *testing.B) {
	cfg := experiments.ExtensionConfig{M: 10, K: 3, N: 1000, Reps: 1, SBias: 1, Load: 0.5, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionStrategies(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- New-substrate benches (ring, preemptive, key workloads) ---------------

func BenchmarkRingReplicaSet(b *testing.B) {
	r, err := flowsched.NewRing(64, 32)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "user:" + string(rune('a'+i%26)) + string(rune('0'+i%10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.ReplicaSet(keys[i%len(keys)], 3)
	}
}

func BenchmarkPreemptiveOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tasks := make([]flowsched.Task, 40)
	tm := 0.0
	for i := range tasks {
		tm += rng.ExpFloat64()
		tasks[i] = flowsched.Task{Release: tm, Proc: 0.5 + rng.Float64()*2}
	}
	inst := flowsched.NewInstance(4, tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.PreemptiveOptimalFmax(inst, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := flowsched.GenerateKeyWorkload(flowsched.KeyWorkloadConfig{
			M: 15, N: 10000, Rate: 12, NumKeys: 1000, KeyBias: 1, K: 3, VNodes: 32,
		}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceJSONRoundTrip(b *testing.B) {
	inst := restrictedInstance(15, 3, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := flowsched.WriteInstanceJSON(&buf, inst); err != nil {
			b.Fatal(err)
		}
		if _, err := flowsched.ReadInstanceJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2NestedPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2(io.Discard, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5and6PlateauPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure5and6(io.Discard, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7PaddedStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure7(io.Discard, 6, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustnessSweep(b *testing.B) {
	cfg := experiments.RobustnessConfig{M: 8, K: 3, N: 1500, Reps: 1, Load: 0.7, SBias: 1,
		Noises: []float64{0, 0.5}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvergenceStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Convergence(io.Discard, []int{8}, []int{3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRouterPo2(b *testing.B) {
	inst := restrictedInstance(15, 3, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(inst, sim.PowerOfTwoRouter{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadFromTrace(b *testing.B) {
	var buf bytes.Buffer
	inst := restrictedInstance(15, 3, 5000)
	if err := flowsched.WorkloadToTrace(&buf, inst); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flowsched.WorkloadFromTrace(bytes.NewReader(src), 15, flowsched.OverlappingReplication(3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFanout(b *testing.B) {
	cfg := experiments.WritesConfig{M: 8, K: 3, N: 1500, Reps: 1, Rate: 0.35 * 8, SBias: 1,
		Fractions: []float64{0, 0.5}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WriteFanout(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPopularityDrift(b *testing.B) {
	cfg := experiments.DriftConfig{M: 8, K: 3, N: 1500, Reps: 1, Load: 0.5, SBias: 1,
		Segments: []int{1, 4}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PopularityDrift(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path suite (internal/benchreg) ------------------------------------
//
// The benchmark-regression harness (cmd/bench, `make bench`) owns the
// hot-path suite; these wrappers expose it to `go test -bench` so both
// entry points measure the same code. See DESIGN.md §7.

func benchregWrap(b *testing.B, name string) {
	fn := benchreg.Get(name)
	if fn == nil {
		b.Fatalf("benchreg suite has no benchmark %q", name)
	}
	fn(b)
}

func BenchmarkRouterEFTPick(b *testing.B)        { benchregWrap(b, "RouterEFTPick") }
func BenchmarkRouterEFTPickFullSet(b *testing.B) { benchregWrap(b, "RouterEFTPickFullSet") }
func BenchmarkRouterJSQPick(b *testing.B)        { benchregWrap(b, "RouterJSQPick") }
func BenchmarkSimRunEFT(b *testing.B)            { benchregWrap(b, "SimRunEFT") }
func BenchmarkSimRunEFTMinFullSet(b *testing.B)  { benchregWrap(b, "SimRunEFTMinFullSet") }
func BenchmarkSimRunEFTMaxFullSet(b *testing.B)  { benchregWrap(b, "SimRunEFTMaxFullSet") }
func BenchmarkSimRunJSQ(b *testing.B)            { benchregWrap(b, "SimRunJSQ") }
func BenchmarkProbeOverheadSimHist(b *testing.B) { benchregWrap(b, "ProbeOverheadSimHist") }
func BenchmarkSchedFIFORun(b *testing.B)         { benchregWrap(b, "SchedFIFORun") }
func BenchmarkStatsSummarize(b *testing.B)       { benchregWrap(b, "StatsSummarize") }
func BenchmarkSimRunStackArmed(b *testing.B)     { benchregWrap(b, "SimRunStackArmed") }
