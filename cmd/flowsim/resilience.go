package main

import (
	"fmt"
	"strconv"
	"strings"

	"flowsched"
	"flowsched/internal/stats"
)

// resilienceFlags collects the resilience-layer flags (-jitter,
// -retrybudget, -budgetburst, -breaker) and builds the
// flowsched.ResilienceConfig shared by every simulated cell.
type resilienceFlags struct {
	jitter      string  // backoff jitter mode: full|equal|decorrelated
	budget      float64 // retry budget fraction (0 = off)
	burst       float64 // token-bucket bound (0 = library default)
	breakerSpec string  // WINDOW:FAILFRAC:COOLDOWN[:PROBES[:SLOW]]

	cfg *flowsched.ResilienceConfig
}

// active reports whether any resilience mechanism was requested.
func (r *resilienceFlags) active() bool { return r.cfg != nil }

// parse builds the ResilienceConfig from the flag values. It returns a
// usage error (the caller exits 2) on a malformed breaker spec, an unknown
// jitter mode, an out-of-range budget, or a -budgetburst without
// -retrybudget.
func (r *resilienceFlags) parse(seed int64) error {
	if r.jitter == "" && r.budget == 0 && r.burst == 0 && r.breakerSpec == "" {
		return nil
	}
	if r.burst != 0 && r.budget == 0 {
		return fmt.Errorf("-budgetburst needs -retrybudget")
	}
	cfg := &flowsched.ResilienceConfig{
		Seed:        seed,
		RetryBudget: r.budget,
		BudgetBurst: r.burst,
	}
	switch r.jitter {
	case "":
	case "full":
		cfg.Jitter = flowsched.JitterFull
	case "equal":
		cfg.Jitter = flowsched.JitterEqual
	case "decorrelated":
		cfg.Jitter = flowsched.JitterDecorrelated
	default:
		return fmt.Errorf("-jitter wants full, equal or decorrelated, got %q", r.jitter)
	}
	if r.breakerSpec != "" {
		brk, err := parseBreakerSpec(r.breakerSpec)
		if err != nil {
			return err
		}
		cfg.Breaker = brk
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.cfg = cfg
	return nil
}

// parseBreakerSpec parses WINDOW:FAILFRAC:COOLDOWN[:PROBES[:SLOW]], e.g.
// "5:0.6:15" or "5:0.6:15:2:3".
func parseBreakerSpec(spec string) (*flowsched.BreakerConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return nil, fmt.Errorf("-breaker wants WINDOW:FAILFRAC:COOLDOWN[:PROBES[:SLOW]], got %q", spec)
	}
	bad := func(what, v string) error {
		return fmt.Errorf("-breaker %s: bad %s %q", spec, what, v)
	}
	window, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, bad("window", parts[0])
	}
	frac, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, bad("failure fraction", parts[1])
	}
	cooldown, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, bad("cooldown", parts[2])
	}
	brk := &flowsched.BreakerConfig{
		Window:           window,
		FailureThreshold: frac,
		Cooldown:         flowsched.Time(cooldown),
	}
	if len(parts) >= 4 {
		probes, err := strconv.Atoi(parts[3])
		if err != nil {
			return nil, bad("probe cap", parts[3])
		}
		brk.HalfOpenProbes = probes
	}
	if len(parts) == 5 {
		slow, err := strconv.ParseFloat(parts[4], 64)
		if err != nil {
			return nil, bad("slow factor", parts[4])
		}
		brk.SlowFactor = slow
	}
	return brk, nil
}

// describe summarizes the enabled mechanisms for the run banner.
func (r *resilienceFlags) describe() string {
	var parts []string
	if r.cfg.Jitter != flowsched.JitterNone {
		parts = append(parts, fmt.Sprintf("jitter=%s", r.cfg.Jitter))
	}
	if r.cfg.RetryBudget > 0 {
		parts = append(parts, fmt.Sprintf("budget=%g (burst %g)",
			r.cfg.RetryBudget, r.cfg.BudgetBurstOrDefault()))
	}
	if r.cfg.Breaker != nil {
		parts = append(parts, fmt.Sprintf("breaker=%s", r.breakerSpec))
	}
	return strings.Join(parts, " ")
}

// resilientHeader is the result table layout of a resilient run.
func resilientHeader() []string {
	return []string{"strategy", "router", "Fmax", "mean flow", "p99",
		"retries", "budget drops", "opens", "probes", "parked"}
}

// resilientRow formats one resilient cell. Flow statistics cover admitted
// tasks only, so the columns stay comparable when -admit/-shed ride along.
func resilientRow(strat, router string, em *flowsched.ElasticMetrics) []any {
	return []any{strat, router,
		float64(em.AdmittedMaxFlow()),
		float64(em.MeanFlow()),
		stats.Quantile(em.AdmittedFlows(), 0.99),
		em.RetriesIssued,
		em.RetriesDropped,
		em.BreakerOpens,
		em.BreakerProbes,
		em.ParkedCount(),
	}
}
