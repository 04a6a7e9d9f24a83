// Package chaos is the randomized soak harness: it samples points of the
// cross-product workload × replication strategy × fault plan × overload
// controls × membership churn × hedging × resilience × router × retry
// policy, simulates each one
// with one sim.Arena.Run (the full engine stack), and runs every resulting
// schedule through the internal/audit invariant auditor plus a counting
// probe that cross-checks the simulator's own metrics. A trial that
// violates any invariant is automatically shrunk (drop tasks, drop fault
// segments, drop scale events, halve the cluster) to a minimal reproduction
// that can be written out as replayable JSON.
//
// Everything is derived from Config.Seed: the same seed replays the same
// trials, the same plans and the same router randomness, so a soak failure
// in CI is reproducible locally from its printed trial seed alone.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"flowsched/internal/audit"
	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
	"flowsched/internal/overload"
	"flowsched/internal/parallel"
	"flowsched/internal/popularity"
	"flowsched/internal/replicate"
	"flowsched/internal/resilience"
	"flowsched/internal/sched"
	"flowsched/internal/sim"
	"flowsched/internal/workload"
)

// InvSimError is the pseudo-invariant reported when the simulator itself
// rejects a trial (e.g. a router picking a server outside the processing
// set): the run never produced a schedule to audit, which is just as much a
// correctness failure and equally shrinkable.
const InvSimError = "sim-error"

// InvProbe is the pseudo-invariant for disagreements between the counting
// probe's view of the run and the simulator's reported metrics.
const InvProbe = "probe"

// RouterSpec names a router kind and builds fresh instances of it; stateful
// routers are rebuilt per simulation so replays see identical streams.
type RouterSpec struct {
	Name string
	New  func(seed int64) sim.Router
}

// DefaultRouters returns every bundled router kind, deterministic ones
// ignoring the seed.
func DefaultRouters() []RouterSpec {
	return []RouterSpec{
		{Name: "EFT-Min", New: func(int64) sim.Router { return sim.EFTRouter{} }},
		{Name: "EFT-Max", New: func(int64) sim.Router { return sim.EFTRouter{Tie: sched.MaxTie{}} }},
		{Name: "JSQ", New: func(int64) sim.Router { return sim.JSQRouter{} }},
		{Name: "RR", New: func(int64) sim.Router { return &sim.RoundRobinRouter{} }},
		{Name: "Po2", New: func(seed int64) sim.Router {
			return sim.PowerOfTwoRouter{Rng: rand.New(rand.NewSource(seed))}
		}},
		{Name: "Random", New: func(seed int64) sim.Router { return &sim.RandomRouter{Seed: seed} }},
		{Name: "EFT-noisy", New: func(seed int64) sim.Router {
			return &sim.NoisyEFTRouter{RelErr: 0.3, Rng: rand.New(rand.NewSource(seed))}
		}},
	}
}

// Config parameterizes a soak run. The zero value is completed by Run:
// 200 trials, seed 1, m ≤ 12, n ≤ 300, all bundled routers.
type Config struct {
	Trials  int
	Seed    int64
	MaxM    int // largest cluster sampled (≥ 2)
	MaxN    int // largest task count sampled (≥ 1)
	Routers []RouterSpec
	Workers int // parallelism of the trial loop; 0 = GOMAXPROCS
	// ShrinkBudget caps the number of candidate simulations one shrink may
	// run; 0 means 2000.
	ShrinkBudget int
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxM < 2 {
		c.MaxM = 12
	}
	if c.MaxN < 1 {
		c.MaxN = 300
	}
	if len(c.Routers) == 0 {
		c.Routers = DefaultRouters()
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 2000
	}
	return c
}

// Params pins one sampled trial: everything needed to regenerate its
// instance, fault plan, router and retry policy bit for bit.
type Params struct {
	Trial      int             `json:"trial"`
	Seed       int64           `json:"seed"` // the trial's derived RNG seed
	M          int             `json:"m"`
	N          int             `json:"n"`
	K          int             `json:"k"` // replication factor (where applicable)
	Load       float64         `json:"load"`
	Dist       string          `json:"dist"`     // constant | exponential | uniform
	Strategy   string          `json:"strategy"` // none|overlapping|disjoint|offset|random|unrestricted
	Router     string          `json:"router"`
	RouterSeed int64           `json:"routerSeed"`
	FaultMode  string          `json:"faultMode"` // none|crash|zones|gray|mixed
	MTBF       float64         `json:"mtbf,omitempty"`
	MTTR       float64         `json:"mttr,omitempty"`
	Zones      int             `json:"zones,omitempty"`
	Policy     sim.RetryPolicy `json:"policy"`
	// Overload, when non-nil, arms sim.Config.Overload with the described
	// overload controls (and the sampler pushes Load toward or past
	// saturation so they actually fire).
	Overload *OverloadParams `json:"overload,omitempty"`
	// Elastic, when non-nil, arms sim.Config.Elastic: machines join (with
	// warm-up) and drain (with handoff) mid-run on the described script, and
	// the audit membership invariants replace the static eligibility check.
	Elastic *ElasticParams `json:"elastic,omitempty"`
	// Hedge, when non-nil, is passed as sim.Config.Hedge (speculative
	// execution), and the audit hedge invariants
	// (exactly-one-effective-completion, copy eligibility, duplicate-work
	// accounting) join the check.
	Hedge *hedge.Config `json:"hedge,omitempty"`
	// Resilience, when non-nil, arms sim.Config.Resilience with the
	// described retry-storm protections (seeded jitter, retry budget,
	// circuit breakers), and the audit resilience invariants (budget
	// conservation, breaker-state dispatch legality) join the check.
	Resilience *ResilienceParams `json:"resilience,omitempty"`
}

// OverloadParams pins the overload-control side of a trial; everything
// needed to rebuild the overload.Config deterministically.
type OverloadParams struct {
	Mode       string  `json:"mode"` // admit-queue|admit-deadline|shed|eject|slo|mixed
	Deadline   float64 `json:"deadline,omitempty"`
	MaxQueue   int     `json:"maxQueue,omitempty"`
	MaxBacklog float64 `json:"maxBacklog,omitempty"`
	Watermark  float64 `json:"watermark,omitempty"`
	ShedPolicy string  `json:"shedPolicy,omitempty"`
	EjectK     float64 `json:"ejectK,omitempty"`
	Cooldown   float64 `json:"cooldown,omitempty"`
}

// ElasticParams pins the membership-churn side of a trial; everything needed
// to rebuild the elastic.Config deterministically. Bounds are expressed
// against the sampled M but clamp to whatever cluster they are replayed on
// (see elasticConfig), so the shrinker can halve the cluster without
// invalidating the params.
type ElasticParams struct {
	Initial int             `json:"initial"`
	Min     int             `json:"min,omitempty"`
	Max     int             `json:"max,omitempty"`
	WarmUp  float64         `json:"warmUp,omitempty"`
	Script  []elastic.Event `json:"script,omitempty"`
	// Auto attaches a capacity-bound autoscaler on top of the script.
	Auto bool `json:"auto,omitempty"`
}

// ResilienceParams pins the resilience side of a trial; everything needed to
// rebuild the resilience.Config deterministically (the jitter seed is the
// trial seed, so a replay draws identical backoff delays).
type ResilienceParams struct {
	Jitter           string  `json:"jitter,omitempty"` // full|equal|decorrelated
	RetryBudget      float64 `json:"retryBudget,omitempty"`
	BudgetBurst      float64 `json:"budgetBurst,omitempty"`
	BreakerWindow    int     `json:"breakerWindow,omitempty"`
	FailureThreshold float64 `json:"failureThreshold,omitempty"`
	Cooldown         float64 `json:"cooldown,omitempty"`
	HalfOpenProbes   int     `json:"halfOpenProbes,omitempty"`
	SlowFactor       float64 `json:"slowFactor,omitempty"`
}

var faultModes = []string{"none", "crash", "zones", "gray", "mixed"}
var distNames = []string{"constant", "exponential", "uniform"}
var strategyNames = []string{"none", "overlapping", "disjoint", "offset", "random", "unrestricted"}
var overloadModes = []string{"admit-queue", "admit-deadline", "shed", "eject", "slo", "mixed"}
var shedPolicyNames = []string{"newest", "oldest", "random", "stretch"}

// unrestricted is the no-processing-set strategy: every task may run on any
// machine (the paper's P|online-r_i|Fmax setting), which is also the domain
// of the auditor's FIFO ≡ EFT spot-check.
type unrestricted struct{}

func (unrestricted) Name() string              { return "unrestricted" }
func (unrestricted) Set(u, m int) core.ProcSet { return nil }

// trialSeed derives the per-trial RNG seed from the run seed; SplitMix64-ish
// so neighboring trials share no low-bit structure.
func trialSeed(seed int64, trial int) int64 {
	z := uint64(seed) + uint64(trial+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SampleParams draws the trial-th parameter point of the run.
func SampleParams(cfg Config, trial int) Params {
	cfg = cfg.withDefaults()
	seed := trialSeed(cfg.Seed, trial)
	rng := rand.New(rand.NewSource(seed))
	p := Params{
		Trial:      trial,
		Seed:       seed,
		M:          2 + rng.Intn(cfg.MaxM-1),
		Load:       0.3 + rng.Float64()*0.85, // spans into overload
		Dist:       distNames[rng.Intn(len(distNames))],
		Strategy:   strategyNames[rng.Intn(len(strategyNames))],
		FaultMode:  faultModes[rng.Intn(len(faultModes))],
		RouterSeed: rng.Int63(),
	}
	p.N = 1 + rng.Intn(cfg.MaxN)
	p.K = 1 + rng.Intn(p.M)
	spec := cfg.Routers[rng.Intn(len(cfg.Routers))]
	p.Router = spec.Name
	if p.FaultMode != "none" {
		p.MTBF = 1 + rng.Float64()*20
		p.MTTR = 0.5 + rng.Float64()*5
		p.Zones = 1 + rng.Intn(4)
	}
	switch rng.Intn(3) {
	case 0: // zero value: retry forever, immediately
	case 1:
		p.Policy = sim.RetryPolicy{MaxAttempts: 2 + rng.Intn(5)}
	default:
		p.Policy = sim.RetryPolicy{
			MaxAttempts:   2 + rng.Intn(8),
			Backoff:       rng.Float64() * 0.5,
			BackoffFactor: 1 + rng.Float64()*2,
			Timeout:       5 + rng.Float64()*100,
		}
	}
	// A third of the trials run guarded: overload controls enabled with the
	// load pushed toward (and past) saturation so they actually fire.
	if rng.Intn(3) == 0 {
		p.Load = 0.8 + rng.Float64()*1.2
		op := &OverloadParams{Mode: overloadModes[rng.Intn(len(overloadModes))]}
		switch op.Mode {
		case "admit-queue":
			op.MaxQueue = 1 + rng.Intn(10)
			if rng.Intn(2) == 0 {
				op.MaxBacklog = 1 + rng.Float64()*20
			}
		case "admit-deadline", "mixed":
			op.Deadline = 2 + rng.Float64()*30
		}
		switch op.Mode {
		case "shed", "mixed":
			op.Watermark = 0.5 + rng.Float64()*10
			op.ShedPolicy = shedPolicyNames[rng.Intn(len(shedPolicyNames))]
		}
		switch op.Mode {
		case "eject", "mixed":
			op.EjectK = 1.5 + rng.Float64()*3
			op.Cooldown = 1 + rng.Float64()*10
		}
		p.Overload = op
	}
	// A third of the trials churn membership: scale events spread across the
	// expected release span (and sometimes an autoscaler on top), so joins,
	// warm-ups, drains and handoffs happen while the trial is under load.
	if rng.Intn(3) == 0 {
		ep := &ElasticParams{Initial: 1 + rng.Intn(p.M), Min: 1, Max: p.M}
		if rng.Intn(2) == 0 {
			ep.WarmUp = rng.Float64() * 2
		}
		horizon := float64(p.N) / workload.RateForLoad(p.Load, p.M)
		steps := 1 + rng.Intn(6)
		sign := 1
		if ep.Initial > (p.M+1)/2 {
			sign = -1
		}
		for s := 0; s < steps; s++ {
			ep.Script = append(ep.Script, elastic.Event{
				At:    core.Time(horizon * float64(s+1) / float64(steps+1)),
				Delta: sign * (1 + rng.Intn(2)),
			})
			sign = -sign
		}
		if rng.Intn(3) == 0 {
			ep.Auto = true
		}
		p.Elastic = ep
	}
	// A third of the trials hedge: a speculative duplicate races the primary
	// under one of the three trigger styles. Sampled last so enabling hedging
	// perturbs none of the draws above — a trial seed reproduces the same
	// workload, faults and churn with or without this block.
	if rng.Intn(3) == 0 {
		hp := &hedge.Config{CancelRunning: rng.Intn(2) == 0}
		switch rng.Intn(3) {
		case 0:
			hp.Delay = 0.2 + rng.Float64()*3
		case 1:
			hp.Quantile = 0.8 + rng.Float64()*0.19
			hp.MinSamples = 5 + rng.Intn(30)
		default:
			hp.Tied = true
		}
		if rng.Intn(3) == 0 {
			hp.MaxHedges = 1 + rng.Intn(p.N)
		}
		p.Hedge = hp
	}
	// A third of the trials run resilient: seeded retry jitter, a cluster
	// retry budget and per-server circuit breakers guard the failover path.
	// Sampled after the hedge block for the same re-draw stability — a trial
	// seed reproduces the same workload, faults, churn and hedging with or
	// without this block.
	if rng.Intn(3) == 0 {
		rp := &ResilienceParams{}
		switch rng.Intn(4) {
		case 0: // no jitter: pure budget/breaker trials stay covered
		case 1:
			rp.Jitter = "full"
		case 2:
			rp.Jitter = "equal"
		default:
			rp.Jitter = "decorrelated"
		}
		if rng.Intn(2) == 0 {
			rp.RetryBudget = 0.05 + rng.Float64()*0.45
			if rng.Intn(2) == 0 {
				rp.BudgetBurst = 1 + rng.Float64()*19
			}
		}
		if rng.Intn(2) == 0 {
			rp.BreakerWindow = 3 + rng.Intn(8)
			rp.FailureThreshold = 0.3 + rng.Float64()*0.7
			rp.Cooldown = 0.5 + rng.Float64()*10
			rp.HalfOpenProbes = 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				rp.SlowFactor = 2 + rng.Float64()*8
			}
		}
		p.Resilience = rp
	}
	return p
}

// estimator builds the SLO guard for a trial. Only the none, overlapping
// and disjoint strategies get the LP (15) estimator; the offset, random and
// unrestricted ones keep a plain capacity of m, so recorded trials replay
// unchanged. With the uniform weights used here every primary's set
// contains the primary, so λ* = m for every strategy, and the two differ
// only in the LP estimator refusing a run on other than its m machines.
func (p Params) estimator() *overload.Estimator {
	switch p.Strategy {
	case "none", "overlapping", "disjoint":
		weights := popularity.Zipf(p.M, 0)
		rng := rand.New(rand.NewSource(p.Seed))
		if e, err := overload.NewEstimator(weights, p.strategy(rng)); err == nil {
			return e
		}
	}
	return overload.NewEstimatorCapacity(float64(p.M))
}

// overloadConfig rebuilds the trial's overload.Config deterministically from
// the params (nil when the trial is unguarded).
func (p Params) overloadConfig() (*overload.Config, error) {
	op := p.Overload
	if op == nil {
		return nil, nil
	}
	cfg := &overload.Config{}
	switch op.Mode {
	case "admit-queue":
		cfg.Admission = overload.QueueBound{MaxQueue: op.MaxQueue, MaxBacklog: op.MaxBacklog}
	case "admit-deadline":
		cfg.Admission = overload.DeadlineAdmit{D: op.Deadline}
	case "shed", "eject", "slo", "mixed":
		if op.Mode == "mixed" {
			cfg.Admission = overload.DeadlineAdmit{D: op.Deadline}
		}
	default:
		return nil, fmt.Errorf("chaos: unknown overload mode %q", op.Mode)
	}
	if op.Watermark > 0 {
		policy, err := overload.ShedPolicyByName(op.ShedPolicy)
		if err != nil {
			return nil, err
		}
		cfg.Shedder = &overload.Shedder{Policy: policy, Watermark: op.Watermark, Seed: p.Seed}
	}
	if op.EjectK > 0 {
		cfg.Ejector = &overload.Ejector{K: op.EjectK, Cooldown: core.Time(op.Cooldown), MinSamples: 5}
	}
	if op.Mode == "slo" || op.Mode == "mixed" {
		cfg.Guard = p.estimator()
	}
	return cfg, nil
}

// elasticConfig rebuilds the trial's elastic.Config for a cluster of m slots
// (nil when the trial has static membership). m is a parameter rather than
// p.M because the shrinker halves the cluster: the bounds clamp so the same
// params stay valid on the shrunk instance.
func (p Params) elasticConfig(m int) *elastic.Config {
	ep := p.Elastic
	if ep == nil || m < 1 {
		return nil
	}
	cfg := &elastic.Config{
		Initial: ep.Initial, Min: ep.Min, Max: ep.Max,
		WarmUp: core.Time(ep.WarmUp), Script: ep.Script,
	}
	if cfg.Initial > m {
		cfg.Initial = m
	}
	if cfg.Min > m {
		cfg.Min = m
	}
	if cfg.Max > m {
		cfg.Max = m
	}
	if cfg.Max > 0 && cfg.Min > cfg.Max {
		cfg.Min = cfg.Max
	}
	if cfg.Initial > 0 {
		if cfg.Min > 0 && cfg.Initial < cfg.Min {
			cfg.Initial = cfg.Min
		}
		if cfg.Max > 0 && cfg.Initial > cfg.Max {
			cfg.Initial = cfg.Max
		}
	}
	if ep.Auto {
		cfg.Auto = &elastic.Autoscaler{Guard: overload.NewEstimatorCapacity(float64(m))}
	}
	return cfg
}

// resilienceConfig rebuilds the trial's resilience.Config (nil when the
// trial runs unprotected). The jitter seed is the trial seed, so a replay
// draws bit-identical backoff delays.
func (p Params) resilienceConfig() *resilience.Config {
	rp := p.Resilience
	if rp == nil {
		return nil
	}
	cfg := &resilience.Config{
		Jitter:      resilience.JitterMode(rp.Jitter),
		Seed:        p.Seed,
		RetryBudget: rp.RetryBudget,
		BudgetBurst: rp.BudgetBurst,
	}
	if rp.BreakerWindow > 0 {
		cfg.Breaker = &resilience.BreakerConfig{
			Window:           rp.BreakerWindow,
			FailureThreshold: rp.FailureThreshold,
			Cooldown:         core.Time(rp.Cooldown),
			HalfOpenProbes:   rp.HalfOpenProbes,
			SlowFactor:       rp.SlowFactor,
		}
	}
	return cfg
}

func (p Params) strategy(rng *rand.Rand) replicate.Strategy {
	k := p.K
	if k > p.M {
		k = p.M
	}
	switch p.Strategy {
	case "overlapping":
		return replicate.Overlapping{K: k}
	case "disjoint":
		return replicate.Disjoint{K: k}
	case "offset":
		return replicate.OffsetDisjoint{K: k, Offset: rng.Intn(p.M)}
	case "random":
		return replicate.NewRandomK(k, rng)
	case "unrestricted":
		return unrestricted{}
	default:
		return replicate.None{}
	}
}

func (p Params) dist() workload.Dist {
	switch p.Dist {
	case "exponential":
		return workload.ProcExponential
	case "uniform":
		return workload.ProcUniform
	default:
		return workload.ProcConstant
	}
}

// Build materializes the trial: its instance and fault plan, regenerated
// deterministically from the params alone.
func (p Params) Build() (*core.Instance, *faults.Plan, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	inst, err := workload.Generate(workload.Config{
		M:        p.M,
		N:        p.N,
		Rate:     workload.RateForLoad(p.Load, p.M),
		Dist:     p.dist(),
		Strategy: p.strategy(rng),
	}, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: trial %d: %w", p.Trial, err)
	}
	horizon := core.Time(1)
	if n := inst.N(); n > 0 {
		if last := inst.Tasks[n-1].Release; last > horizon {
			horizon = last
		}
	}
	var plan *faults.Plan
	switch p.FaultMode {
	case "crash":
		plan = faults.Generate(p.M, horizon, p.MTBF, p.MTTR, rng)
	case "zones":
		plan = faults.GenerateCorrelated(p.M, horizon, faults.CorrelatedConfig{
			Zones: p.Zones, MTBF: p.MTBF, MTTR: p.MTTR,
		}, rng)
	case "gray":
		plan = faults.GenerateGray(p.M, horizon, faults.GrayConfig{MTBF: p.MTBF, MTTR: p.MTTR}, rng)
	case "mixed":
		crash := faults.Generate(p.M, horizon, p.MTBF, p.MTTR, rng)
		gray := faults.GenerateGray(p.M, horizon, faults.GrayConfig{MTBF: p.MTBF, MTTR: p.MTTR}, rng)
		plan = crash.Merge(gray)
	}
	return inst, plan, nil
}

// routerSpec resolves the params' router name against the configured specs.
func (p Params) routerSpec(routers []RouterSpec) (RouterSpec, error) {
	for _, spec := range routers {
		if spec.Name == p.Router {
			return spec, nil
		}
	}
	return RouterSpec{}, fmt.Errorf("chaos: unknown router %q", p.Router)
}

// arenas recycles run arenas across trials: parallel.MapErr exposes no worker
// identity, so a sync.Pool hands each in-flight Check a private arena and a
// soak reallocates per-run state only as often as trials overlap, not once per
// trial. The schedule and metrics a trial reads all die before the arena goes
// back in the pool.
var arenas = sync.Pool{New: func() any { return sim.NewArena() }}

// Check simulates (inst, plan) under the params' router and policy, audits
// the outcome and cross-checks the counting probe. It returns the combined
// violations, audit's first (nil when the trial is clean). A non-nil rec
// (reset first) rides the run as a flight recorder: it receives the raw
// event stream, and audit violations naming a task carry that task's events
// as evidence. The event stream is deterministic in (inst, plan, spec, p),
// so re-running a failing configuration with a fresh recorder reproduces the
// violating sequence exactly — the property make chaos-short asserts.
func Check(inst *core.Instance, plan *faults.Plan, spec RouterSpec, p Params, rec *obs.FlightRecorder) []audit.Violation {
	router := spec.New(p.RouterSeed)
	probe := newCountProbe(inst.N())
	sinks := []obs.Sink{probe}
	if rec != nil {
		rec.Reset()
		sinks = append(sinks, rec)
	}
	cfg, err := p.overloadConfig()
	if err != nil {
		return []audit.Violation{{Invariant: InvSimError, Task: -1, Machine: -1, Detail: err.Error()}}
	}
	ecfg, rcfg := p.elasticConfig(inst.M), p.resilienceConfig()
	arena := arenas.Get().(*sim.Arena)
	defer arenas.Put(arena)
	s, em, err := arena.Run(inst, router, sim.Config{Plan: plan, Retry: p.Policy, Overload: cfg, Elastic: ecfg, Hedge: p.Hedge, Resilience: rcfg, Probe: obs.Multi(sinks...)})
	if err != nil {
		return []audit.Violation{{Invariant: InvSimError, Task: -1, Machine: -1, Detail: err.Error()}}
	}
	om := &em.OverloadMetrics
	comps := make([]core.Time, inst.N())
	for i, task := range inst.Tasks {
		comps[i] = task.Release + om.Flows[i]
	}
	opts := audit.Options{
		Plan:        plan,
		Completions: comps,
		Dropped:     om.Dropped,
		Recorder:    rec,
	}
	if cfg != nil {
		info := &audit.OverloadInfo{Rejected: om.Rejected, Shed: om.Shed}
		if b, ok := cfg.Admission.(overload.Budgeted); ok {
			info.Deadline = b.Budget()
		}
		opts.Overload = info
	}
	if ecfg != nil {
		// The membership log swaps the static eligibility check for the
		// dispatch-time effective-set replay (and disables the fixed-m
		// FIFO ≡ EFT spot-check).
		opts.Membership = &audit.MembershipInfo{Membership: em.Membership, Dispatched: em.Dispatched}
	}
	if p.Hedge != nil {
		opts.Hedge = &audit.HedgeInfo{
			Hedged: em.Hedged, CopyServer: em.HedgeCopyServer, CopyAt: em.HedgeCopyAt,
			WonByCopy: em.HedgeWonByCopy, Busy: em.Busy, DuplicateWork: em.DuplicateWork,
		}
	}
	if rcfg != nil {
		opts.Resilience = &audit.ResilienceInfo{
			RetriesRequested: em.RetriesRequested,
			RetriesIssued:    em.RetriesIssued,
			RetriesDropped:   em.RetriesDropped,
			BudgetDropped:    em.BudgetDropped,
			Spans:            em.BreakerSpans,
			ProbeDispatch:    em.ProbeDispatch,
			Dispatched:       em.Dispatched,
			BreakerOpens:     em.BreakerOpens,
			BreakerCloses:    em.BreakerCloses,
		}
	}
	r := audit.Audit(inst, s, opts)
	return append(r.Violations, probe.crossCheck(inst, em, ecfg != nil, p.Hedge != nil, rcfg != nil)...)
}

// Failure is one failing trial: its parameters, the violations of the
// original run, the shrunk minimal reproduction, and the flight-recorder
// dump of the shrunk configuration's run.
type Failure struct {
	Params     Params            `json:"params"`
	Violations []audit.Violation `json:"violations"`
	Repro      *Repro            `json:"repro,omitempty"`
	// Events is the raw event stream of the shrunk repro's run (bounded by
	// the flight ring), written next to the repro by cmd/chaos as
	// <repro>.events.jsonl. Replaying the repro with a fresh recorder
	// reproduces it exactly.
	Events []obs.FlightEvent `json:"events,omitempty"`
}

// Summary is the outcome of a soak run.
type Summary struct {
	Trials   int
	Failures []Failure
}

// Ok reports whether every trial audited clean.
func (s *Summary) Ok() bool { return len(s.Failures) == 0 }

// Run executes the soak: cfg.Trials independent trials in parallel, each
// one sampled, built, simulated, audited and cross-checked. Failing trials
// are then shrunk sequentially (shrinking is deterministic, so order does
// not matter) and returned with their minimal repros. logf, when non-nil,
// receives progress lines.
func Run(cfg Config, logf func(format string, args ...any)) (*Summary, error) {
	cfg = cfg.withDefaults()
	say := func(format string, args ...any) {
		if logf != nil {
			logf(format, args...)
		}
	}
	type outcome struct {
		params     Params
		violations []audit.Violation
	}
	results, err := parallel.MapErr(cfg.Trials, cfg.Workers, func(i int) (outcome, error) {
		p := SampleParams(cfg, i)
		inst, plan, err := p.Build()
		if err != nil {
			return outcome{}, err
		}
		spec, err := p.routerSpec(cfg.Routers)
		if err != nil {
			return outcome{}, err
		}
		return outcome{params: p, violations: Check(inst, plan, spec, p, nil)}, nil
	})
	if err != nil {
		return nil, err
	}
	sum := &Summary{Trials: cfg.Trials}
	for _, res := range results {
		if len(res.violations) == 0 {
			continue
		}
		say("chaos: trial %d (seed %d, router %s, faults %s, m=%d n=%d): %d violation(s); first: %s",
			res.params.Trial, res.params.Seed, res.params.Router, res.params.FaultMode,
			res.params.M, res.params.N, len(res.violations), res.violations[0])
		f := Failure{Params: res.params, Violations: res.violations}
		if repro, err := ShrinkFailure(cfg, res.params); err != nil {
			say("chaos: trial %d: shrink failed: %v", res.params.Trial, err)
		} else {
			f.Repro = repro
			// Flight-record the shrunk configuration so the failure ships
			// with its raw event sequence.
			rec := obs.NewFlightRecorder(0)
			if _, err := repro.Replay(cfg.Routers, rec); err != nil {
				say("chaos: trial %d: flight recording failed: %v", res.params.Trial, err)
			} else {
				f.Events = rec.Events()
			}
			outages, slowdowns, m2 := 0, 0, res.params.M
			if repro.Plan != nil {
				outages, slowdowns = len(repro.Plan.Outages), len(repro.Plan.Slowdowns)
			}
			if inst, err := repro.Inst(); err == nil {
				m2 = inst.M
			}
			say("chaos: trial %d: shrunk to n=%d, %d outage(s), %d slowdown(s), m=%d",
				res.params.Trial, repro.N(), outages, slowdowns, m2)
		}
		sum.Failures = append(sum.Failures, f)
	}
	say("chaos: %d trials, %d failure(s)", sum.Trials, len(sum.Failures))
	return sum, nil
}
