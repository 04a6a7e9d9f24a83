// Command flowsim simulates a replicated key-value store cluster: Poisson
// unit requests with a Zipf popularity bias are routed online to servers
// and the response-time distribution is reported for every combination of
// replication strategy and router.
//
//	flowsim -m 15 -k 3 -n 10000 -load 0.8 -s 1 -case shuffled
//	flowsim ... -dump run.json        # also save the overlapping instance
//	flowsim -replay run.json          # re-simulate a saved instance
//
// Fault injection (server crashes + failover):
//
//	flowsim -m 15 -k 3 -mtbf 500 -mttr 50 -retries 3   # random MTBF/MTTR outages
//	flowsim ... -faults plan.json                      # replay a scripted fault plan
//	flowsim ... -mtbf 500 -dump run.json               # saves run.json + run.json.faults.json
//	flowsim -replay run.json                           # replays faults too when present
//
// Hedged execution (speculative duplicate dispatch, first completion wins;
// needs -k ≥ 2 so an alternate server exists):
//
//	flowsim ... -hedge 5            # hedge any dispatch older than 5 time units
//	flowsim ... -hedge p95 -cancel  # p95 flow-time trigger, cancel the loser mid-service
//	flowsim ... -hedge p95 -tied    # tied requests: two copies up front, loser revoked
//
// Resilience (anti-retry-storm protections, riding on fault injection):
//
//	flowsim ... -mtbf 500 -retries 3 -backoff 1 -jitter full   # jittered failover backoff
//	flowsim ... -retrybudget 0.1 -budgetburst 3   # cap retries at 10% of fresh dispatches
//	flowsim ... -breaker 5:0.6:15:2               # per-server circuit breakers
//
// Observability (probes on the overlapping-strategy × EFT-Min cell, the
// same cell -dump saves; all combinable):
//
//	flowsim ... -events run.jsonl          # JSONL event stream of the run
//	flowsim ... -metrics metrics.prom      # Prometheus text exposition
//	flowsim ... -sample 5 -samplesvg q.svg # queue/backlog time series every 5 units
//	flowsim ... -trace traces.json         # per-task causal span traces as JSON
//	flowsim ... -traceworst 10 -tracesvg tail.svg  # span timeline of the 10 worst tasks
//	flowsim ... -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"

	"flowsched"
	"flowsched/internal/table"
)

func main() {
	m := flag.Int("m", 15, "cluster size")
	k := flag.Int("k", 3, "replication factor")
	n := flag.Int("n", 10000, "number of requests")
	loadFrac := flag.Float64("load", 0.8, "average cluster load (fraction of 1)")
	s := flag.Float64("s", 1, "Zipf popularity bias")
	caseName := flag.String("case", "shuffled", "popularity case: uniform|worst|shuffled")
	seed := flag.Int64("seed", 1, "random seed")
	dump := flag.String("dump", "", "write the generated overlapping-strategy instance (and fault plan, if any) to this JSON file")
	replay := flag.String("replay", "", "re-simulate a saved instance JSON instead of generating one")
	timeline := flag.Int("timeline", -1, "after a fault-free -replay run, print this machine's busy timeline (1-based; 0 = full event trace)")
	svg := flag.String("svg", "", "after a fault-free -replay run, write the EFT-Min schedule as an SVG Gantt chart to this file")
	mtbf := flag.Float64("mtbf", 0, "mean time between failures per server (0 = no random faults)")
	mttr := flag.Float64("mttr", 50, "mean time to repair an outage (with -mtbf)")
	faultsPath := flag.String("faults", "", "simulate under this fault plan JSON instead of generating one")
	retries := flag.Int("retries", 0, "max dispatch attempts per request before dropping (0 = unlimited)")
	timeout := flag.Float64("timeout", 0, "drop a request older than this at failover (0 = never)")
	backoff := flag.Float64("backoff", 0, "base failover backoff, growing per extra attempt (0 = immediate)")
	backoffFactor := flag.Float64("backofffactor", 2, "multiplier applied to -backoff per extra attempt (1 = constant, must be ≥1)")
	var ov ovFlags
	flag.StringVar(&ov.admit, "admit", "", "admission policy: all | queue:LEN[:BACKLOG] | deadline:D")
	flag.StringVar(&ov.shed, "shed", "", "load shedding: POLICY:WATERMARK with POLICY one of newest|oldest|random|stretch")
	flag.Float64Var(&ov.eject, "eject", 0, "eject servers whose service-time EWMA exceeds FACTOR× the cluster median (0 = off)")
	flag.BoolVar(&ov.slo, "slo", false, "attach the LP-capacity SLO guard and report brownouts")
	var hg hedgeFlags
	flag.StringVar(&hg.spec, "hedge", "", "hedge aged dispatches: fixed delay (e.g. 5) or live flow-time percentile (e.g. p95)")
	flag.BoolVar(&hg.tied, "tied", false, "with -hedge, enqueue two copies up front and revoke the loser at service start")
	flag.BoolVar(&hg.cancel, "cancel", false, "with -hedge, cancel the losing attempt even mid-service")
	var rs resilienceFlags
	flag.StringVar(&rs.jitter, "jitter", "", "jitter the retry backoff: full | equal | decorrelated")
	flag.Float64Var(&rs.budget, "retrybudget", 0, "cap retries at this fraction of first-attempt dispatches (0 = off)")
	flag.Float64Var(&rs.burst, "budgetburst", 0, "with -retrybudget, bound the retry token bucket (0 = library default)")
	flag.StringVar(&rs.breakerSpec, "breaker", "", "per-server circuit breakers: WINDOW:FAILFRAC:COOLDOWN[:PROBES[:SLOW]] (e.g. 5:0.6:15)")
	var ob obsFlags
	flag.StringVar(&ob.events, "events", "", "write the observed cell's JSONL event stream to this file")
	flag.StringVar(&ob.metrics, "metrics", "", "write Prometheus-style counters and flow/stretch quantiles to this file")
	flag.Float64Var(&ob.sample, "sample", 0, "record queue/backlog/watermark samples at this interval (0 = off)")
	flag.StringVar(&ob.sampleSVG, "samplesvg", "", "with -sample, render the time series as an SVG chart to this file")
	flag.StringVar(&ob.trace, "trace", "", "write the observed cell's per-task causal traces as JSON to this file")
	flag.IntVar(&ob.traceWorst, "traceworst", 0, "with -trace/-tracesvg, retain only the K worst-flow task traces (0 = keep all)")
	flag.StringVar(&ob.traceSVG, "tracesvg", "", "write a span-timeline SVG of the worst traced tasks to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	// Validate the fault flags before doing any work: a negative -mtbf used
	// to be silently ignored (the run came out fault-free with no warning),
	// and nonsense retry parameters only blew up deep inside the simulator.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "flowsim: "+format+"\n", args...)
		os.Exit(2)
	}
	if explicit["mtbf"] && *mtbf <= 0 {
		usageErr("-mtbf must be positive, got %v", *mtbf)
	}
	if explicit["mttr"] && *mttr <= 0 {
		usageErr("-mttr must be positive, got %v", *mttr)
	}
	if explicit["faults"] && explicit["mtbf"] {
		usageErr("-faults and -mtbf are mutually exclusive: a scripted plan already fixes the outages")
	}
	if *retries < 0 {
		usageErr("-retries must be non-negative, got %d", *retries)
	}
	if *timeout < 0 {
		usageErr("-timeout must be non-negative, got %v", *timeout)
	}
	if *backoff < 0 {
		usageErr("-backoff must be non-negative, got %v", *backoff)
	}
	policy := flowsched.RetryPolicy{
		MaxAttempts:   *retries,
		Backoff:       *backoff,
		BackoffFactor: *backoffFactor,
		Timeout:       *timeout,
	}
	if err := policy.Validate(); err != nil {
		// Catches the silent-footgun factors too: a -backofffactor in (0,1)
		// would *shrink* the delay every attempt, the opposite of backoff.
		usageErr("%v", err)
	}
	if ob.traceWorst < 0 {
		usageErr("-traceworst must be non-negative, got %d", ob.traceWorst)
	}
	if ob.traceWorst > 0 && ob.trace == "" && ob.traceSVG == "" {
		usageErr("-traceworst needs -trace or -tracesvg")
	}
	if err := ov.parse(*seed); err != nil {
		usageErr("%v", err)
	}
	if ov.active() && *replay != "" {
		usageErr("-admit/-shed/-eject/-slo do not combine with -replay")
	}
	if err := hg.parse(); err != nil {
		usageErr("%v", err)
	}
	if hg.active() && *replay != "" {
		usageErr("-hedge does not combine with -replay: a saved run replays verbatim")
	}
	if hg.active() && *k < 2 {
		usageErr("-hedge with -k %d is pointless: no alternate server exists to hedge to", *k)
	}
	if err := rs.parse(*seed); err != nil {
		usageErr("%v", err)
	}
	if rs.active() && *replay != "" {
		usageErr("-jitter/-retrybudget/-breaker do not combine with -replay: a saved run replays verbatim")
	}
	if *faultsPath != "" && *replay == "" {
		// Fail fast on an unreadable or invalid plan file (the replay path
		// resolves its own plan next to the instance, so it parses later).
		if _, err := readFaultPlan(*faultsPath); err != nil {
			usageErr("-faults %s: %v", *faultsPath, err)
		}
	}

	stopProf, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	if ob.sampleSVG != "" && ob.sample <= 0 {
		log.Fatal("flowsim: -samplesvg needs a positive -sample interval")
	}

	if *replay != "" {
		if err := simulateSaved(*replay, *timeline, *svg, *faultsPath, policy, &ob); err != nil {
			log.Fatal(err)
		}
		return
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
		fmt.Fprintf(os.Stderr, "flowsim: unknown case %q\n", *caseName)
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	weights := flowsched.PopularityWeights(pcase, *m, *s, rng)
	rate := flowsched.RateForLoad(*loadFrac, *m)

	// Fault mode: a scripted plan, or random outages drawn over the
	// expected horizon n/λ. The same plan is replayed against every
	// strategy×router cell so the comparison is fair.
	var plan *flowsched.FaultPlan
	switch {
	case *faultsPath != "":
		var err error
		plan, err = readFaultPlan(*faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		if plan.M != *m {
			log.Fatalf("flowsim: fault plan is for %d servers, -m is %d", plan.M, *m)
		}
	case *mtbf > 0:
		horizon := float64(*n) / rate
		plan = flowsched.GenerateFaultPlan(*m, horizon, *mtbf, *mttr, rand.New(rand.NewSource(*seed+101)))
	}

	strategies := []flowsched.ReplicationStrategy{
		flowsched.NoReplication(),
		flowsched.OverlappingReplication(*k),
		flowsched.DisjointReplication(*k),
	}
	for _, strat := range strategies {
		// Catch an out-of-range replication factor (e.g. -k 20 -m 15) here
		// with a usage error instead of a panic deep inside Strategy.Set.
		if err := flowsched.ValidateReplication(strat, *m); err != nil {
			usageErr("%v", err)
		}
	}
	routers := []struct {
		name string
		r    flowsched.Router
	}{
		{"EFT-Min", flowsched.EFTRouter(flowsched.TieMin)},
		{"EFT-Max", flowsched.EFTRouter(flowsched.TieMax)},
		{"JSQ", flowsched.JSQRouter()},
	}

	fmt.Printf("flowsim: m=%d k=%d n=%d load=%.0f%% case=%s s=%v seed=%d",
		*m, *k, *n, *loadFrac*100, pcase, *s, *seed)
	if plan != nil {
		fmt.Printf(" faults=%d outages (availability %.2f%%) retries=%d timeout=%v",
			len(plan.Outages), plan.Availability(float64(*n)/rate)*100, *retries, *timeout)
	}
	if ov.active() {
		fmt.Printf(" overload[%s]", ov.describe())
	}
	if hg.active() {
		fmt.Printf(" hedge[%s]", hg.describe())
	}
	if rs.active() {
		fmt.Printf(" resilience[%s]", rs.describe())
	}
	fmt.Printf("\n\n")

	// The active layers pick the table layout; the fault-free paper run
	// (no layer armed) keeps its own.
	var out *table.Table
	var row func(strat, router string, em *flowsched.ElasticMetrics) []any
	switch {
	case rs.active():
		out, row = table.New(resilientHeader()...), resilientRow
	case hg.active():
		out, row = table.New(hedgedHeader()...), hedgedRow
	case ov.active():
		out, row = table.New(guardedHeader()...), guardedRow
	case plan == nil:
		out = table.New("strategy", "router", "max load %", "Fmax", "mean flow", "p99", "utilization")
	default:
		out, row = table.New(faultyHeader()...), faultyRow
	}
	arena := flowsched.NewRunArena()
	for _, strat := range strategies {
		maxLoad := flowsched.MaxLoadPercent(flowsched.MaxLoad(weights, strat), *m)
		inst, err := flowsched.GenerateWorkload(flowsched.WorkloadConfig{
			M: *m, N: *n, Rate: rate,
			Weights: weights, Strategy: strat,
		}, rand.New(rand.NewSource(*seed)))
		if err != nil {
			log.Fatal(err)
		}
		if *dump != "" && strat.Name() == flowsched.OverlappingReplication(*k).Name() {
			if err := dumpInstance(*dump, inst, plan); err != nil {
				log.Fatal(err)
			}
		}
		for _, rt := range routers {
			// Probes ride on the overlapping-strategy × EFT-Min cell, the
			// same cell -dump saves.
			var cell *cellObserver
			if ob.active() && strat.Name() == flowsched.OverlappingReplication(*k).Name() && rt.name == "EFT-Min" {
				var err error
				if cell, err = ob.attach(*m); err != nil {
					log.Fatal(err)
				}
			}
			if row == nil {
				sched, metrics, err := flowsched.Observe(inst, rt.r, cell.probeOrNil())
				if err != nil {
					log.Fatal(err)
				}
				if err := sched.Validate(); err != nil {
					log.Fatalf("invalid schedule from %s: %v", rt.name, err)
				}
				if err := cell.finish(); err != nil {
					log.Fatal(err)
				}
				out.AddRow(strat.Name(), rt.name,
					fmt.Sprintf("%.0f", maxLoad),
					float64(metrics.MaxFlow()),
					float64(metrics.MeanFlow()),
					float64(metrics.FlowQuantile(0.99)),
					fmt.Sprintf("%.2f", metrics.Utilization()))
				continue
			}
			// The overload config is per strategy (its SLO guard knows the
			// strategy's capacity); the hedge and resilience configs are
			// shared by every cell.
			cfg := flowsched.SimConfig{Plan: plan, Retry: policy, Hedge: hg.cfg, Resilience: rs.cfg, Probe: cell.probeOrNil()}
			if ov.active() {
				if cfg.Overload, err = ov.config(weights, strat); err != nil {
					log.Fatal(err)
				}
			}
			_, em, err := arena.Run(inst, rt.r, cfg)
			if err != nil {
				log.Fatal(err)
			}
			if err := cell.finish(); err != nil {
				log.Fatal(err)
			}
			out.AddRow(row(strat.Name(), rt.name, em)...)
		}
	}
	out.Render(os.Stdout)
	if *dump != "" {
		fmt.Printf("\noverlapping-strategy instance written to %s\n", *dump)
		if plan != nil {
			fmt.Printf("fault plan written to %s\n", faultPlanPath(*dump))
		}
	}
}

// faultPlanPath is where the fault plan rides along with a dumped instance.
func faultPlanPath(instancePath string) string { return instancePath + ".faults.json" }

func dumpInstance(path string, inst *flowsched.Instance, plan *flowsched.FaultPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := flowsched.WriteInstanceJSON(f, inst); err != nil {
		return err
	}
	if plan == nil {
		return nil
	}
	pf, err := os.Create(faultPlanPath(path))
	if err != nil {
		return err
	}
	defer pf.Close()
	return plan.WriteJSON(pf)
}

func readFaultPlan(path string) (*flowsched.FaultPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flowsched.ReadFaultPlanJSON(f)
}

// faultyHeader is the result table layout of a run under a fault plan with
// no other layer armed.
func faultyHeader() []string {
	return []string{"strategy", "router", "avail %", "Fmax", "mean flow", "p99",
		"spike Fmax", "retries", "drop %", "parked"}
}

// faultyRow formats one faulty cell.
func faultyRow(strat, router string, em *flowsched.ElasticMetrics) []any {
	return []any{strat, router,
		fmt.Sprintf("%.2f", em.Availability()*100),
		float64(em.MaxFlow()),
		float64(em.MeanFlow()),
		float64(em.FlowQuantile(0.99)),
		float64(em.RecoverySpike()),
		em.TotalRetries(),
		fmt.Sprintf("%.2f", em.DropRate()*100),
		em.ParkedCount(),
	}
}

// simulateSaved replays a saved instance under every router. A fault plan
// is replayed alongside when one is given via -faults or found next to the
// instance (instance path + ".faults.json"); timeline and svgPath apply to
// the fault-free EFT-Min schedule only, and observability probes (-events,
// -metrics, -sample) attach to the EFT-Min run.
func simulateSaved(path string, timeline int, svgPath, faultsPath string, policy flowsched.RetryPolicy, ob *obsFlags) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	inst, err := flowsched.ReadInstanceJSON(f)
	if err != nil {
		return err
	}

	var plan *flowsched.FaultPlan
	if faultsPath == "" {
		if _, serr := os.Stat(faultPlanPath(path)); serr == nil {
			faultsPath = faultPlanPath(path)
		}
	}
	if faultsPath != "" {
		plan, err = readFaultPlan(faultsPath)
		if err != nil {
			return err
		}
		if plan.M != inst.M {
			return fmt.Errorf("flowsim: fault plan is for %d servers, instance has %d", plan.M, inst.M)
		}
	}

	fmt.Printf("flowsim: replaying %s (m=%d, n=%d, structures %v)\n",
		path, inst.M, inst.N(), flowsched.Structures(inst))
	if plan != nil {
		fmt.Printf("         with fault plan %s (%d outages)\n", faultsPath, len(plan.Outages))
	}
	fmt.Println()

	routers := []struct {
		name string
		r    flowsched.Router
	}{
		{"EFT-Min", flowsched.EFTRouter(flowsched.TieMin)},
		{"EFT-Max", flowsched.EFTRouter(flowsched.TieMax)},
		{"JSQ", flowsched.JSQRouter()},
	}

	if plan != nil {
		// A saved run has one strategy: the table drops that column.
		out := table.New(faultyHeader()[1:]...)
		arena := flowsched.NewRunArena()
		for _, rt := range routers {
			cell, err := attachIf(ob, rt.name == "EFT-Min", inst.M)
			if err != nil {
				return err
			}
			_, em, err := arena.Run(inst, rt.r, flowsched.SimConfig{Plan: plan, Retry: policy, Probe: cell.probeOrNil()})
			if err != nil {
				return err
			}
			if err := cell.finish(); err != nil {
				return err
			}
			out.AddRow(faultyRow("", rt.name, em)[1:]...)
		}
		out.Render(os.Stdout)
		return nil
	}

	out := table.New("router", "Fmax", "mean flow", "p99", "utilization")
	var eftSched *flowsched.Schedule
	for _, rt := range routers {
		cell, err := attachIf(ob, rt.name == "EFT-Min", inst.M)
		if err != nil {
			return err
		}
		s, metrics, err := flowsched.Observe(inst, rt.r, cell.probeOrNil())
		if err != nil {
			return err
		}
		if err := cell.finish(); err != nil {
			return err
		}
		if eftSched == nil {
			eftSched = s
		}
		out.AddRow(rt.name,
			float64(metrics.MaxFlow()),
			float64(metrics.MeanFlow()),
			float64(metrics.FlowQuantile(0.99)),
			fmt.Sprintf("%.2f", metrics.Utilization()))
	}
	out.Render(os.Stdout)

	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		if err := flowsched.WriteGanttSVG(f, eftSched, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nSVG Gantt written to %s\n", svgPath)
	}

	switch {
	case timeline == 0:
		fmt.Println("\nEFT-Min event trace:")
		flowsched.WriteTrace(os.Stdout, flowsched.Trace(eftSched))
	case timeline > 0 && timeline <= inst.M:
		fmt.Println()
		flowsched.WriteMachineTimeline(os.Stdout, eftSched, timeline-1)
	}
	return nil
}

// --- Observability plumbing ------------------------------------------------

// obsFlags collects the probe-related flags.
type obsFlags struct {
	events     string  // JSONL event stream path
	metrics    string  // Prometheus exposition path
	sampleSVG  string  // time-series SVG path
	sample     float64 // sampling interval (0 = off)
	trace      string  // per-task causal trace JSON path
	traceSVG   string  // span-timeline SVG path
	traceWorst int     // KeepWorst retention bound (0 = keep all)
}

// active reports whether any probe output was requested.
func (o *obsFlags) active() bool {
	return o.events != "" || o.metrics != "" || o.sample > 0 || o.tracing()
}

// tracing reports whether the span tracer is wanted.
func (o *obsFlags) tracing() bool { return o.trace != "" || o.traceSVG != "" }

// attachIf builds the probe set when the flags are active and this is the
// observed cell; otherwise it returns nil (a nil *cellObserver is inert).
func attachIf(o *obsFlags, observed bool, m int) (*cellObserver, error) {
	if o == nil || !o.active() || !observed {
		return nil, nil
	}
	return o.attach(m)
}

// cellObserver is the probe set attached to the observed cell plus the
// output plumbing to drain it after the run.
type cellObserver struct {
	flags    *obsFlags
	counters *flowsched.ProbeCounters
	hist     *flowsched.HistogramProbe
	series   *flowsched.TimeSeries
	sink     *flowsched.JSONLSink
	tracer   *flowsched.Tracer
	eventsF  *os.File
	probe    flowsched.Probe
}

// attach opens the outputs and builds the probe feeding every sink.
func (o *obsFlags) attach(m int) (*cellObserver, error) {
	c := &cellObserver{
		flags:    o,
		counters: &flowsched.ProbeCounters{},
		hist:     flowsched.NewHistogramProbe(),
	}
	sinks := []flowsched.ProbeSink{c.counters, c.hist}
	if o.sample > 0 {
		series, err := flowsched.NewTimeSeries(m, o.sample)
		if err != nil {
			return nil, err
		}
		c.series = series
		sinks = append(sinks, series)
	}
	if o.events != "" {
		f, err := os.Create(o.events)
		if err != nil {
			return nil, err
		}
		c.eventsF = f
		c.sink = flowsched.NewJSONLSink(f)
		sinks = append(sinks, c.sink)
	}
	if o.tracing() {
		retain := flowsched.TraceKeepAll()
		if o.traceWorst > 0 {
			retain = flowsched.TraceKeepWorst(o.traceWorst)
		}
		c.tracer = flowsched.NewTracer(retain)
		sinks = append(sinks, c.tracer)
	}
	c.probe = flowsched.MultiProbe(sinks...)
	return c, nil
}

// probeOrNil lets an unobserved cell (nil receiver) run unprobed.
func (c *cellObserver) probeOrNil() flowsched.Probe {
	if c == nil {
		return nil
	}
	return c.probe
}

// finish drains the probes into the requested outputs.
func (c *cellObserver) finish() error {
	if c == nil {
		return nil
	}
	if c.sink != nil {
		if err := c.sink.Flush(); err != nil {
			return fmt.Errorf("flowsim: writing %s: %w", c.flags.events, err)
		}
		if err := c.eventsF.Close(); err != nil {
			return err
		}
		fmt.Printf("event stream written to %s\n", c.flags.events)
	}
	if c.flags.metrics != "" {
		f, err := os.Create(c.flags.metrics)
		if err != nil {
			return err
		}
		if err := c.counters.WriteProm(f); err == nil {
			err = c.hist.Flow.WriteProm(f, "flowsched_flow_time")
		} else {
			f.Close()
			return err
		}
		if err := c.hist.Stretch.WriteProm(f, "flowsched_stretch"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", c.flags.metrics)
	}
	if c.tracer != nil && c.flags.trace != "" {
		f, err := os.Create(c.flags.trace)
		if err != nil {
			return err
		}
		if err := c.tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("task traces written to %s\n", c.flags.trace)
	}
	if c.tracer != nil && c.flags.traceSVG != "" {
		// The span timeline shows the tail: the -traceworst bound when set,
		// otherwise the 20 worst-flow tasks of a keep-all run.
		k := c.flags.traceWorst
		if k <= 0 {
			k = 20
		}
		f, err := os.Create(c.flags.traceSVG)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("observed cell: %d worst task traces", k)
		if err := flowsched.WriteTraceTimelineSVG(f, c.tracer.Worst(k), c.tracer.Makespan(), title); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("span-timeline SVG written to %s\n", c.flags.traceSVG)
	}
	if c.series != nil && c.flags.sampleSVG != "" {
		f, err := os.Create(c.flags.sampleSVG)
		if err != nil {
			return err
		}
		if err := flowsched.WriteTimeSeriesSVG(f, c.series.Samples(), "observed cell: queue profile"); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("time-series SVG written to %s\n", c.flags.sampleSVG)
	}
	if c.series != nil {
		peak, at := c.series.PeakBacklog()
		wm, wmAt := c.series.PeakMaxAge()
		fmt.Printf("observed cell: peak backlog %d at t=%.4g, max-flow watermark %.4g at t=%.4g (%d samples)\n",
			peak, at, wm, wmAt, len(c.series.Samples()))
	}
	return nil
}

// startProfiles wires runtime/pprof: a CPU profile over the whole process
// and a heap profile at exit. The returned stop function is safe to call
// once on the normal exit path.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
			fmt.Printf("CPU profile written to %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Printf("flowsim: heap profile: %v", err)
				return
			}
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("flowsim: heap profile: %v", err)
			}
			f.Close()
			fmt.Printf("heap profile written to %s\n", memPath)
		}
	}, nil
}
