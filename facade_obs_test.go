package flowsched_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flowsched"
)

// TestFacadeObservability exercises the observability facade end to end:
// probes through Observe, JSONL replay against Trace, quantiles from the
// streaming histogram, the time series and its SVG rendering, and the
// Prometheus exposition.
func TestFacadeObservability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := flowsched.PopularityWeights(flowsched.PopularityShuffled, 6, 1, rng)
	inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
		M: 6, N: 400, Rate: flowsched.RateForLoad(0.6, 6),
		Weights: weights, Strategy: flowsched.OverlappingReplication(3),
	}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	router := flowsched.EFTRouter(flowsched.TieMin)

	sPlain, mPlain, err := flowsched.Simulate(inst, router)
	if err != nil {
		t.Fatal(err)
	}

	hist := flowsched.NewHistogramProbe()
	series, err := flowsched.NewTimeSeries(6, mPlain.Makespan/25)
	if err != nil {
		t.Fatal(err)
	}
	counters := &flowsched.ProbeCounters{}
	var events bytes.Buffer
	sink := flowsched.NewJSONLSink(&events)

	sObs, mObs, err := flowsched.Observe(inst, router, flowsched.MultiProbe(hist, series, counters, sink))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sPlain.Machine, sObs.Machine) || !reflect.DeepEqual(mPlain.Flows, mObs.Flows) {
		t.Fatal("Observe diverged from Simulate")
	}

	// The streaming histogram brackets the exact quantiles.
	g := hist.Flow.Growth()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := mObs.FlowQuantile(q)
		if hq := hist.Flow.Quantile(q); hq > exact*g*1.000001 {
			t.Errorf("q%v: histogram %v vs exact %v", q, hq, exact)
		}
	}
	if hist.Flow.Max() != mObs.MaxFlow() {
		t.Errorf("histogram max %v, metrics %v", hist.Flow.Max(), mObs.MaxFlow())
	}

	// JSONL replay reproduces the schedule's trace exactly.
	replayed, err := flowsched.ReplayJSONL(&events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, flowsched.Trace(sObs)) {
		t.Fatal("JSONL replay diverged from Trace")
	}

	// Counters and exposition.
	if counters.Arrivals != 400 || counters.Completions != 400 {
		t.Errorf("counters %+v", counters)
	}
	var prom strings.Builder
	if err := counters.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if err := hist.Flow.WriteProm(&prom, "flowsched_flow_time"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flowsched_arrivals_total 400", `flowsched_flow_time{quantile="0.9"}`} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Time series + SVG.
	if len(series.Samples()) == 0 {
		t.Fatal("no samples recorded")
	}
	peak, _ := series.PeakBacklog()
	if peak <= 0 {
		t.Errorf("peak backlog %d", peak)
	}
	var svg bytes.Buffer
	if err := flowsched.WriteTimeSeriesSVG(&svg, series.Samples(), "EFT queue profile"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "</svg>") {
		t.Fatal("incomplete SVG")
	}

	// The engine with only a probe reproduces Observe's flows.
	counters2 := &flowsched.ProbeCounters{}
	_, mf, err := flowsched.NewRunArena().Run(inst, router, flowsched.SimConfig{Probe: flowsched.MultiProbe(counters2)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf.Flows, mObs.Flows) {
		t.Fatal("probed engine run under nil plan diverged from Observe")
	}
	if counters2.Completions != 400 || counters2.Failovers != 0 {
		t.Errorf("faulty counters %+v", counters2)
	}
}
