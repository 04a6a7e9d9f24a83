package sim

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/obs"
	"flowsched/internal/trace"
)

// fullInstance builds an unrestricted instance (every Set nil): under an
// EFTRouter, every dispatch descends the ready tree.
func fullInstance(m, n int, rng *rand.Rand) *core.Instance {
	tasks := make([]core.Task, n)
	t := 0.0
	for i := range tasks {
		t += rng.ExpFloat64() / float64(m)
		tasks[i] = core.Task{Release: t, Proc: 0.5 + rng.Float64()}
	}
	return core.NewInstance(m, tasks)
}

// allProbes returns one of each built-in probe plus their fan-out.
func allProbes(t *testing.T, m int, dt core.Time) (*obs.Counters, *obs.HistogramProbe, *obs.Sampler, *obs.JSONLSink, *bytes.Buffer, obs.Probe) {
	t.Helper()
	counters := &obs.Counters{}
	hist := obs.NewHistogramProbe()
	sampler, err := obs.NewSampler(m, dt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	return counters, hist, sampler, sink, &buf, obs.Multi(counters, hist, sampler, sink)
}

// TestProbedRunEquivalence: attaching probes must not change the run — the
// probed schedule and metrics are identical to the unprobed ones, on both
// loops (EFT and JSQ) and on mixed and full sets.
func TestProbedRunEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(7)
		instances := []*core.Instance{
			randomInstance(m, 300, rng), // member scans and the tree
			fullInstance(m, 300, rng),   // the tree only
		}
		for _, inst := range instances {
			for _, router := range []Router{EFTRouter{}, JSQRouter{}} {
				sPlain, mPlain, err := Run(inst, router)
				if err != nil {
					t.Fatal(err)
				}
				counters, hist, sampler, sink, _, probe := allProbes(t, inst.M, mPlain.Makespan/17)
				sProbed, mProbed, err := RunProbed(inst, router, probe)
				if err != nil {
					t.Fatal(err)
				}
				sameSchedule(t, router.Name(), sPlain, sProbed)
				sameMetrics(t, router.Name(), mPlain, mProbed)
				n := int64(inst.N())
				if counters.Arrivals != n || counters.Dispatches != n || counters.Completions != n {
					t.Fatalf("%s: counters %+v, want %d arrivals = dispatches = completions", router.Name(), counters, n)
				}
				if hist.Flow.Count() != inst.N() || hist.Flow.Max() != mPlain.MaxFlow() {
					t.Errorf("%s: flow histogram count %d max %v, want %d / %v",
						router.Name(), hist.Flow.Count(), hist.Flow.Max(), inst.N(), mPlain.MaxFlow())
				}
				if len(sampler.Samples()) == 0 {
					t.Errorf("%s: sampler recorded nothing", router.Name())
				}
				if err := sink.Err(); err != nil {
					t.Errorf("%s: sink error %v", router.Name(), err)
				}
			}
		}
	}
}

// TestProbedRunFaultyEquivalence: same property for the faulty simulator,
// plus the counter conservation laws of the fault model.
func TestProbedRunFaultyEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		m := 2 + rng.Intn(5)
		inst := randomInstance(m, 300, rng)
		plan := faults.Empty(m).
			Down(rng.Intn(m), 5+10*rng.Float64(), 40+20*rng.Float64()).
			Down(rng.Intn(m), 60+10*rng.Float64(), 90+20*rng.Float64())
		policy := RetryPolicy{MaxAttempts: 4, Backoff: 0.1}

		sPlain, mPlain, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: policy})
		if err != nil {
			t.Fatal(err)
		}
		counters, hist, sampler, sink, _, probe := allProbes(t, m, mPlain.Horizon/23)
		sProbed, mProbed, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: policy, Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, "faulty", sPlain, sProbed)
		if !reflect.DeepEqual(mPlain, mProbed) {
			t.Fatalf("faulty metrics diverge:\n%+v\n%+v", mPlain, mProbed)
		}

		// Conservation: every request either completes or is dropped; every
		// dispatch beyond the first per request was preceded by a retry.
		n := int64(inst.N())
		if counters.Arrivals != n {
			t.Errorf("arrivals %d, want %d", counters.Arrivals, n)
		}
		if counters.Completions+counters.Drops != n {
			t.Errorf("completions %d + drops %d != %d requests", counters.Completions, counters.Drops, n)
		}
		if counters.Drops != int64(mPlain.DroppedCount()) {
			t.Errorf("drops %d, metrics say %d", counters.Drops, mPlain.DroppedCount())
		}
		if counters.Dispatches < counters.Completions {
			t.Errorf("dispatches %d < completions %d", counters.Dispatches, counters.Completions)
		}
		if hist.Flow.Count() != int(counters.Completions) {
			t.Errorf("flow histogram count %d, want one entry per completion %d", hist.Flow.Count(), counters.Completions)
		}
		if len(sampler.Samples()) == 0 {
			t.Error("sampler recorded nothing")
		}
		if err := sink.Err(); err != nil {
			t.Errorf("sink error %v", err)
		}
	}
}

// TestProbeNilRunAllocs pins the zero-overhead contract of the nil probe:
// RunProbed(…, nil) stays within the same constant allocation bound as Run
// (DESIGN.md §7), on both dispatch loops.
func TestProbeNilRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mixed := randomInstance(8, 2000, rng)
	for _, tc := range []struct {
		inst   *core.Instance
		router Router
	}{
		{mixed, EFTRouter{}},                      // EFT loop, member scans and the tree
		{fullInstance(8, 2000, rng), EFTRouter{}}, // EFT loop, the tree only
		{mixed, JSQRouter{}},                      // generic loop
	} {
		avg := testing.AllocsPerRun(5, func() {
			if _, _, err := RunProbed(tc.inst, tc.router, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 64 {
			t.Errorf("%s: %v allocs per nil-probe run of %d tasks: the probe hooks leak onto the hot path",
				tc.router.Name(), avg, tc.inst.N())
		}
	}
}

// TestProbeNilRunFaultyAllocs: the faulty simulator's nil-probe path also
// stays constant-allocation (it was ~350 allocs per run before the probe
// hooks landed; the bound is far below one alloc per request).
func TestProbeNilRunFaultyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := randomInstance(8, 2000, rng)
	plan := faults.Empty(8).Down(0, 5, 50).Down(3, 20, 80)
	avg := testing.AllocsPerRun(5, func() {
		if _, _, err := NewArena().Run(inst, EFTRouter{}, Config{Plan: plan, Retry: RetryPolicy{MaxAttempts: 3}}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 512 {
		t.Errorf("%v allocs per nil-probe faulty run of %d tasks", avg, inst.N())
	}
}

// TestHistogramMatchesStatsQuantile is the accuracy property of the
// streaming histogram against the exact per-run flow data: for every q, the
// histogram quantile is within one log-bucket (factor Growth) of the order
// statistic of rank ⌊q·(n−1)⌋ that anchors stats.Quantile's interpolation,
// and the exactly-tracked aggregates (count, mean, min, max) agree with
// stats to float precision.
func TestHistogramMatchesStatsQuantile(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		inst := randomInstance(2+rng.Intn(7), 1000, rng)
		hist := obs.NewHistogramProbe()
		_, metrics, err := RunProbed(inst, EFTRouter{}, obs.Multi(hist))
		if err != nil {
			t.Fatal(err)
		}
		flows := append([]core.Time(nil), metrics.Flows...)
		sort.Float64s(flows)
		n := len(flows)
		g := hist.Flow.Growth()
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			lo := int(math.Floor(q * float64(n-1)))
			anchor := flows[lo]
			hq := hist.Flow.Quantile(q)
			if hq < anchor/g*(1-1e-12) || hq > anchor*g*(1+1e-12) {
				t.Fatalf("seed %d q=%v: histogram %v outside one bucket of order statistic %v (stats.Quantile %v)",
					seed, q, hq, anchor, metrics.FlowQuantile(q))
			}
			// stats.Quantile interpolates between ranks lo and lo+1, so it
			// can only sit above the anchor: the histogram never
			// overestimates it by more than the bucket factor.
			if sq := metrics.FlowQuantile(q); hq > sq*g*(1+1e-12) {
				t.Fatalf("seed %d q=%v: histogram %v exceeds stats.Quantile %v by more than factor %v", seed, q, hq, sq, g)
			}
		}
		if hist.Flow.Count() != n || hist.Flow.Max() != metrics.MaxFlow() || hist.Flow.Min() != flows[0] {
			t.Fatalf("seed %d: exact aggregates diverge", seed)
		}
		if mf := metrics.MeanFlow(); math.Abs(hist.Flow.Mean()-mf) > 1e-9*mf {
			t.Fatalf("seed %d: mean %v != %v", seed, hist.Flow.Mean(), mf)
		}
	}
}

// TestJSONLReplayMatchesTrace: replaying a run's JSONL event stream
// reconstructs the exact trace of its schedule — same events, same order,
// byte-identical rendering.
func TestJSONLReplayMatchesTrace(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		m := 2 + rng.Intn(7)
		for _, inst := range []*core.Instance{
			randomInstance(m, 250, rng),
			fullInstance(m, 250, rng),
		} {
			var buf bytes.Buffer
			sink := obs.NewJSONLSink(&buf)
			sched, _, err := RunProbed(inst, EFTRouter{}, obs.Multi(sink))
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			replayed, err := obs.ReplayTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := trace.FromSchedule(sched)
			if !reflect.DeepEqual(replayed, want) {
				t.Fatalf("seed %d: replayed trace diverges from trace.FromSchedule (%d vs %d events)",
					seed, len(replayed), len(want))
			}
			var a, b bytes.Buffer
			trace.Write(&a, replayed)
			trace.Write(&b, want)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("seed %d: rendered traces differ", seed)
			}
			if err := trace.Validate(replayed, inst.N()); err != nil {
				t.Fatalf("seed %d: replayed trace invalid: %v", seed, err)
			}
		}
	}
}

// TestSamplerMatchesQueueProfile cross-checks the in-flight backlog series
// against the post-hoc trace.QueueProfile of the same run: at every sample
// boundary the live backlog equals the trace's waiting+running count.
func TestSamplerMatchesQueueProfile(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		m := 2 + rng.Intn(7)
		inst := randomInstance(m, 400, rng)
		_, mPlain, err := Run(inst, EFTRouter{})
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := obs.NewSampler(m, mPlain.Makespan/31)
		if err != nil {
			t.Fatal(err)
		}
		sched, _, err := RunProbed(inst, EFTRouter{}, obs.Multi(sampler))
		if err != nil {
			t.Fatal(err)
		}
		profile := trace.QueueProfile(trace.FromSchedule(sched))
		for _, s := range sampler.Samples() {
			ref := 0
			for _, p := range profile {
				if p.Time <= s.Time {
					ref = p.Waiting + p.Running
				} else {
					break
				}
			}
			if s.Backlog != ref {
				t.Fatalf("seed %d: backlog at t=%v is %d, trace says %d", seed, s.Time, s.Backlog, ref)
			}
			queued := 0
			for _, q := range s.Queue {
				if q < 0 {
					t.Fatalf("seed %d: negative queue length at t=%v: %v", seed, s.Time, s.Queue)
				}
				queued += q
			}
			if queued != s.Backlog {
				t.Fatalf("seed %d: per-server queues sum to %d, backlog %d", seed, queued, s.Backlog)
			}
		}
	}
}
