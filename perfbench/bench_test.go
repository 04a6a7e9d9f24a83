package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	cases := []struct {
		n      int
		cap    float64
		pct    float64
		beyond int
	}{
		{1000, 99.9, 99, 10}, // p99.9 leaves 1 beyond: fall back to p99
		{1000, 95, 95, 50},   // the cap wins
		{1000, 50, 50, 500},  // a cap at the median
		{41, 99, 75, 10},     // just enough for p75
		{36, 99, 50, 18},     // too few calls for p75
		{15, 99, 100, 0},     // not even the median has 10 beyond
	}
	for _, c := range cases {
		sample := append([]float64(nil), xs[:c.n]...)
		pct, v, beyond := tail(sample, 10, c.cap)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("n=%d cap=%v: got p%v with %d beyond, want p%v with %d", c.n, c.cap, pct, beyond, c.pct, c.beyond)
		}
		sorted := sortedCopy(sample)
		if want := quantile(sorted, pct/100); pct < 100 && v != want {
			t.Errorf("n=%d: value %v, want the p%v quantile %v", c.n, v, pct, want)
		}
		if pct == 100 && v != sorted[len(sorted)-1] {
			t.Errorf("n=%d: value %v, want the maximum", c.n, v)
		}
	}
}

func TestMinCallsReachEveryLadderPercentile(t *testing.T) {
	for _, p := range tailLadder {
		n := minCalls(p)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if pct, _, beyond := tail(xs, 10, p); pct != p || beyond < 10 {
			t.Errorf("p%v: %d calls give p%v with %d beyond", p, n, pct, beyond)
		}
		if pct, _, _ := tail(xs[:n-1], 10, p); pct == p {
			t.Errorf("p%v: %d calls already suffice, minCalls says %d", p, n-1, n)
		}
	}
}

func TestSpeedFactorCancelsHostSpeed(t *testing.T) {
	if f := speedFactor(5, 4, 6); f != 1 {
		t.Errorf("refs averaging the nominal: factor %v, want 1", f)
	}
	// A host running at half speed doubles the pass and both reference
	// timings; the adjusted pass is the nominal-speed one.
	raw, slowRaw := 10.0, 20.0
	if got := slowRaw * speedFactor(5, 10, 10); got != raw*speedFactor(5, 5, 5) {
		t.Errorf("half-speed host: adjusted %v, want %v", got, raw)
	}
	if f := speedFactor(4, 3, 5); f != 1 {
		t.Errorf("mean of before and after: factor %v, want 1", f)
	}
}

func TestMaxAndQuantileMatchesSortedQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 101, 5000} {
		for _, dup := range []bool{false, true} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.ExpFloat64()
				if dup {
					xs[i] = math.Floor(xs[i] * 3)
				}
			}
			sorted := sortedCopy(xs)
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				mx, qv := maxAndQuantile(append([]float64(nil), xs...), q)
				if mx != sorted[n-1] || qv != quantile(sorted, q) {
					t.Errorf("n=%d dup=%v q=%v: got max %v q %v, want %v %v", n, dup, q, mx, qv, sorted[n-1], quantile(sorted, q))
				}
			}
		}
	}
}

var sink [][]byte

// TestAllocPerTaskAccounting runs passes over a call that allocates a known
// 1 MiB per call for 1000 tasks: the bytes the runtime counts inside the
// timed calls, per task, must be that allocation and nothing the checks or
// the pass loop allocate.
func TestAllocPerTaskAccounting(t *testing.T) {
	const size, tasks = 1 << 20, 1000
	c := call{
		label: "alloc",
		tasks: tasks,
		run: func(*recorder, bool) (output, error) {
			sink = append(sink[:0], make([]byte, size))
			return output{}, nil
		},
		check: func(*recorder, output) (simStats, error) {
			sink = append(sink, make([]byte, 3*size)) // not counted
			return simStats{released: tasks}, nil
		},
	}
	b := &bench{o: options{nominal: 4}, out: &bytes.Buffer{}, ref: newRefLoop(), alloc: newAllocMeter(),
		suite: &suite{calls: []call{c, c}}}
	log := b.passes(b.suite.calls, 0, 0, nil, false, true)
	for log.passes < 3 {
		more := b.passes(b.suite.calls, 0, 0, nil, false, true)
		log.allocB += more.allocB
		log.tasks += more.tasks
		log.passes++
	}
	got := allocPerTask(log.allocB, log.tasks)
	want := float64(size) / tasks
	if got < want || got > want*1.01 {
		t.Errorf("alloc per task %v, want %v (within 1%%)", got, want)
	}
	if b.failed != 0 {
		t.Errorf("%d failed calls: %v", b.failed, b.errs)
	}
	if allocPerTask(0, 0) != 0 {
		t.Error("no tasks must account 0 bytes per task")
	}
}

var endToEndNames = []string{"setup_s", "tasks_per_s", "call_ms_p50", "call_ms_tail", "alloc_b_per_task",
	"rss_mb_peak", "sim_fmax", "sim_flow_p99", "sim_goodput"}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced: every output check passes, every metric is printed, and the
// traced run's sim outputs equal the untraced run's.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 3, seconds: 0.05, nominal: 4, tiny: true, spans: t.TempDir()}
			var out bytes.Buffer
			res, plain, err := runBench(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(plain) {
				t.Fatalf("untraced run: %+v\n%s", res, out.String())
			}
			for _, name := range endToEndNames {
				if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
				}
			}
			o.traced = true
			out.Reset()
			tres, traced, err := runBench(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct || tres.Failed != 0 {
				t.Fatalf("traced run: %+v\n%s", tres, out.String())
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("traced sim outputs %+v differ from untraced %+v", traced, plain)
			}
			if len(tres.Metrics) != len(perLayerUnits) {
				t.Errorf("traced run printed %d metrics, want %d", len(tres.Metrics), len(perLayerUnits))
			}
			if _, err := json.Marshal(tres); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "paper", "--seconds", "1"},                           // no nominal
		{"--workload", "nope", "--ref-nominal-ms", "4"},                     // unknown workload
		{"--workload", "paper", "--ref-nominal-ms", "4", "--trace", "2"},    // bad mode
		{"--workload", "paper", "--ref-nominal-ms", "4", "--seconds", "-1"}, // bad length
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and nothing printed", args, code, out.String())
		}
	}
}

func TestBenchmarkFileListsEveryMetric(t *testing.T) {
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	var res result
	res.Metrics = make(map[string]metric)
	(&bench{out: &bytes.Buffer{}}).endToEnd(&res, &passLog{}, []float64{1}, []float64{1}, 99)
	for _, m := range doc.EndToEnd {
		names = append(names, m.Name)
		if got := res.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, the run prints %q", m.Name, m.Unit, got)
		}
	}
	sort.Strings(names)
	want := append([]string(nil), endToEndNames...)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("end_to_end lists %v, want %v", names, want)
	}
	if len(doc.PerLayer) != len(perLayerUnits) {
		t.Fatalf("per_layer lists %d metrics, the traced run prints %d", len(doc.PerLayer), len(perLayerUnits))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayerUnits[i][0] || m.Unit != perLayerUnits[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), traced run prints %s (%s)", i, m.Name, m.Unit, perLayerUnits[i][0], perLayerUnits[i][1])
		}
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
}
