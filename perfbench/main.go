// Command perfbench is the repository benchmark. It runs one workload
// through the public functions of the flowsched packages, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of its output.
//
// One goroutine issues calls back to back (a closed loop, no think time).
// Every timing is scaled by nominal ÷ measured speed of a reference loop the
// benchmark owns, timed right before and after each pass, so that a host
// running slower or faster for a while does not read as a program change.
//
// Run it from the repository root through the build script, which compiles
// it first:
//
//	bash perfbench/run.sh --ref-nominal-ms 4 --workload paper --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	nominal  float64 // reference loop's nominal time, ms
	tiny     bool    // test-sized inputs
	spans    string  // directory the traced run writes its spans to
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: paper, scale, stack or verify")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed passes run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	fs.Float64Var(&o.nominal, "ref-nominal-ms", 0, "nominal time of the reference loop, ms (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = trace == 1
	o.spans = filepath.Join(".bench_build", "spans")
	if _, ok := findWorkload(o.workload); !ok || o.nominal <= 0 || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (paper|scale|stack|verify), --ref-nominal-ms > 0, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, _, err := runBench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: the workload's inputs, the reference loop and what the
// timed passes recorded.
type bench struct {
	o      options
	out    io.Writer
	ref    *refLoop
	alloc  *allocMeter
	suite  *suite
	want   []simStats // first timed pass's sim_* values, per call
	refMs  []float64  // every reference timing of the run
	failed int
	tried  int
	errs   []string
	// mismatches counts calls whose sim_* values differed from the first
	// pass's (each also counts as failed).
	mismatches int
}

// passLog accumulates the timed calls of a phase.
type passLog struct {
	adj, raw []float64 // per-call ms, host-speed-adjusted and raw
	tasks    int
	allocB   uint64
	gcAuto   uint64
	passes   int
	rssMB    []float64 // each pass's peak resident set
	// Traced passes only: Pick and hook timer totals, and the last pass's
	// outputs, whose counters the per-layer metrics read.
	pickNs, picks, hookNs, hooks int64
	outs                         []output
}

func (b *bench) timeRef() float64 {
	ms := b.ref.time()
	b.refMs = append(b.refMs, ms)
	return ms
}

func (b *bench) fail(label string, err error) {
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, fmt.Sprintf("%s: %v", label, err))
	}
}

// setupBuilds is how many identical set-up builds a run times; setup_s is
// their median, since one build's time swings by a quarter from run to run.
const setupBuilds = 3

// setup builds the inputs setupBuilds times, each followed by one warm-up
// call per instance, and returns each build's adjusted and raw seconds and
// the summed adjusted ms of its workload-layer spans. The last build is kept.
func (b *bench) setup(w workloadDef, rec *recorder) (setupS, rawS, genMs []float64, err error) {
	for i := 0; i < setupBuilds; i++ {
		b.suite = nil
		runtime.GC()
		from := 0
		if rec != nil {
			from = len(rec.spans)
		}
		r0 := b.timeRef()
		t0 := time.Now()
		s, err := w.build(rec, b.o.seed, b.o.tiny)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		for _, c := range s.calls {
			if _, err := c.run(nil, false); err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up %s: %w", c.label, err)
			}
		}
		d := msSince(t0)
		f := speedFactor(b.o.nominal, r0, b.timeRef())
		setupS = append(setupS, d*f/1000)
		rawS = append(rawS, d/1000)
		if rec != nil {
			gen := 0.0
			for _, s := range rec.spans[from:] {
				if s.Layer == "workload" {
					gen += float64(s.End-s.Start) / 1e6
				}
			}
			genMs = append(genMs, gen*f)
		}
		b.suite = s
	}
	return setupS, rawS, genMs, nil
}

// passes runs whole passes over calls until budget has elapsed and at least
// minCalls calls were made (and at least one pass). Each pass starts from a
// collected heap and is bracketed by reference timings; every call is timed
// alone and checked right after.
func (b *bench) passes(calls []call, budget time.Duration, minCalls int, rec *recorder, traced bool, compare bool) *passLog {
	log := &passLog{}
	start := time.Now()
	for log.passes == 0 || time.Since(start) < budget || len(log.raw) < minCalls {
		runtime.GC()
		resetPeakRSS()
		goroutines := runtime.NumGoroutine()
		_, gc0 := b.alloc.read()
		r0 := b.timeRef()
		raw := make([]float64, len(calls))
		var outs []output
		if traced {
			outs = make([]output, len(calls))
		}
		for i, c := range calls {
			b.tried++
			rec.nextCall()
			a0, _ := b.alloc.read()
			t0 := time.Now()
			o, err := c.run(rec, traced)
			raw[i] = msSince(t0)
			a1, _ := b.alloc.read()
			log.allocB += a1 - a0
			log.tasks += c.tasks
			if err != nil {
				b.fail(c.label, err)
				continue
			}
			st, err := c.check(rec, o)
			if err == nil && compare {
				err = b.reproduce(i, st)
			}
			if err != nil {
				b.fail(c.label, err)
			}
			if traced {
				if o.pick != nil {
					log.pickNs += o.pick.ns
					log.picks += o.pick.picks
				}
				if o.hooks != nil {
					log.hookNs += o.hooks.ns
					log.hooks += o.hooks.hooks
				}
				if c.extra != nil {
					c.extra(rec)
				}
				outs[i] = o
			}
		}
		r1 := b.timeRef()
		_, gc1 := b.alloc.read()
		log.gcAuto += gc1 - gc0
		log.rssMB = append(log.rssMB, peakRSSMB())
		if g := runtime.NumGoroutine(); g != goroutines {
			b.fail("pass", fmt.Errorf("goroutines %d before the pass, %d after", goroutines, g))
		}
		f := speedFactor(b.o.nominal, r0, r1)
		for _, d := range raw {
			log.raw = append(log.raw, d)
			log.adj = append(log.adj, d*f)
		}
		if traced {
			log.outs = outs
		}
		log.passes++
	}
	return log
}

// reproduce checks call i's sim_* values against the first pass's, bit for
// bit; the first pass records them.
func (b *bench) reproduce(i int, st simStats) error {
	if b.want == nil {
		b.want = make([]simStats, len(b.suite.calls))
		for j := range b.want {
			b.want[j].released = -1
		}
	}
	if b.want[i].released < 0 {
		b.want[i] = st
		return nil
	}
	if st != b.want[i] {
		b.mismatches++
		return fmt.Errorf("sim outputs %+v differ from the first pass's %+v", st, b.want[i])
	}
	return nil
}

// runBench runs one workload and returns its result line and the sim_*
// values of each call, which every pass reproduced.
func runBench(o options, out io.Writer) (*result, []simStats, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	b := &bench{o: o, out: out, ref: newRefLoop(), alloc: newAllocMeter()}
	for i := 0; i < 3; i++ {
		b.ref.time() // page in and warm the reference loop
	}
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	setupS, setupRaw, genMs, err := b.setup(w, rec)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d  %d calls per pass\n",
		o.workload, o.seed, runtime.GOMAXPROCS(0), len(b.suite.calls))
	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metric)}
	if !o.traced {
		log := b.passes(b.suite.calls, budget, minCalls(w.tailPct), nil, false, true)
		b.endToEnd(res, log, setupS, setupRaw, w.tailPct)
	} else {
		share := budget / 2
		if b.suite.rungs != nil {
			share = budget / 4
		}
		plain := b.passes(b.suite.calls, share, 0, nil, false, true)
		from := len(rec.spans)
		traced := b.passes(b.suite.calls, share, 0, rec, true, true)
		var rungs []*passLog
		if b.suite.rungs != nil {
			rungs = b.ladder(budget - 2*share)
		}
		b.perLayer(res, plain, traced, rungs, rec, from, genMs)
		path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := rec.write(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rec.spans), path)
	}
	for _, e := range b.errs {
		fmt.Fprintf(out, "FAILED %s\n", e)
	}
	res.Attempted, res.Failed = b.tried, b.failed
	res.Correct = b.failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, b.want, nil
}

// ladder times the stack link ladder: every rung's calls, rungs interleaved
// within each pass so that host drift hits all rungs alike.
func (b *bench) ladder(budget time.Duration) []*passLog {
	logs := make([]*passLog, len(b.suite.rungs))
	for r := range logs {
		logs[r] = &passLog{}
	}
	start := time.Now()
	for logs[0].passes == 0 || time.Since(start) < budget {
		for r, calls := range b.suite.rungs {
			l := b.passes(calls, 0, 0, nil, false, false)
			logs[r].adj = append(logs[r].adj, l.adj...)
			logs[r].raw = append(logs[r].raw, l.raw...)
			logs[r].passes++
		}
	}
	return logs
}

func (b *bench) endToEnd(res *result, log *passLog, setupS, setupRaw []float64, tailPct float64) {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	p50, rawP50 := median(log.adj), median(log.raw)
	pct, tailV, beyond := tail(log.adj, 10, tailPct)
	_, rawTail, _ := tail(log.raw, 10, tailPct)
	sumAdj, sumRaw := sum(log.adj), sum(log.raw)
	var fmaxes, p99s []float64
	completed, released := 0, 0
	for _, st := range b.want {
		fmaxes = append(fmaxes, st.fmax)
		p99s = append(p99s, st.p99)
		completed += st.completed
		released += st.released
	}
	goodput := 0.0
	if released > 0 {
		goodput = float64(completed) / float64(released)
	}
	put("setup_s", "s", median(setupS))
	put("tasks_per_s", "1/s", float64(log.tasks)/(sumAdj/1000))
	put("call_ms_p50", "ms", p50)
	put("call_ms_tail", "ms", tailV)
	put("alloc_b_per_task", "B", allocPerTask(log.allocB, log.tasks))
	put("rss_mb_peak", "MB", median(log.rssMB))
	put("sim_fmax", "time", median(fmaxes))
	put("sim_flow_p99", "time", median(p99s))
	put("sim_goodput", "share", goodput)

	fmt.Fprintf(b.out, "reference loop: median %.4f ms over %d timings, nominal %.4g ms\n", median(b.refMs), len(b.refMs), b.o.nominal)
	fmt.Fprintf(b.out, "%-17s %14s %-6s %14s  %s\n", "metric", "adjusted", "unit", "raw", "samples")
	row := func(name string, raw float64, note string) {
		m := res.Metrics[name]
		rawS := "-"
		if !math.IsNaN(raw) {
			rawS = strconv.FormatFloat(raw, 'g', 6, 64)
		}
		fmt.Fprintf(b.out, "%-17s %14.6g %-6s %14s  %s\n", name, m.Value, m.Unit, rawS, note)
	}
	row("setup_s", median(setupRaw), fmt.Sprintf("median of %d builds", len(setupS)))
	row("tasks_per_s", float64(log.tasks)/(sumRaw/1000), fmt.Sprintf("%d tasks in %d passes", log.tasks, log.passes))
	row("call_ms_p50", rawP50, fmt.Sprintf("n=%d calls", len(log.adj)))
	row("call_ms_tail", rawTail, fmt.Sprintf("p%g, %d calls beyond, n=%d", pct, beyond, len(log.adj)))
	row("alloc_b_per_task", math.NaN(), fmt.Sprintf("%d B over %d tasks", log.allocB, log.tasks))
	row("rss_mb_peak", peakRSSMB(), fmt.Sprintf("median over %d passes of the pass's VmHWM; raw = VmHWM at exit", len(log.rssMB)))
	row("sim_fmax", math.NaN(), fmt.Sprintf("median over %d calls", len(fmaxes)))
	row("sim_flow_p99", math.NaN(), fmt.Sprintf("median over %d calls", len(p99s)))
	row("sim_goodput", math.NaN(), fmt.Sprintf("%d of %d tasks completed", completed, released))
	fmt.Fprintf(b.out, "calls: %d attempted, %d failed\n", b.tried, b.failed)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS resets the kernel's peak resident set (VmHWM) to the current
// resident set, so that the next reading is the peak since this call. The
// first pass's peak then holds no set-up garbage, and a pass whose garbage
// happened to peak high does not set the figure for the whole run. Where
// the reset is refused the readings stay peaks since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM), in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
