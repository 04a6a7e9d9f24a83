package main

import (
	"fmt"
	"strconv"
	"strings"

	"flowsched"
	"flowsched/internal/stats"
)

// hedgeFlags collects the hedged-execution flags (-hedge, -tied, -cancel)
// and builds the flowsched.HedgeConfig shared by every simulated cell.
type hedgeFlags struct {
	spec   string // fixed delay ("5") or flow-time quantile ("p95")
	tied   bool   // enqueue two copies up front, revoke the loser
	cancel bool   // cancel the losing attempt even mid-service

	cfg *flowsched.HedgeConfig
}

// active reports whether hedged execution was requested.
func (h *hedgeFlags) active() bool { return h.cfg != nil }

// parse turns the -hedge spec into a HedgeConfig. It returns a usage error
// (the caller exits 2) on a malformed spec or a tied/cancel flag without
// -hedge.
func (h *hedgeFlags) parse() error {
	if h.spec == "" {
		if h.tied || h.cancel {
			return fmt.Errorf("-tied and -cancel need -hedge")
		}
		return nil
	}
	cfg := &flowsched.HedgeConfig{Tied: h.tied, CancelRunning: h.cancel}
	if rest, ok := strings.CutPrefix(h.spec, "p"); ok {
		pct, err := strconv.ParseFloat(rest, 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return fmt.Errorf("-hedge pN wants a percentile in (0,100), got %q", h.spec)
		}
		cfg.Quantile = pct / 100
	} else {
		d, err := strconv.ParseFloat(h.spec, 64)
		if err != nil || d <= 0 {
			return fmt.Errorf("-hedge wants a positive delay or a percentile like p95, got %q", h.spec)
		}
		cfg.Delay = flowsched.Time(d)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.cfg = cfg
	return nil
}

// describe summarizes the hedge trigger for the run banner.
func (h *hedgeFlags) describe() string {
	var parts []string
	switch {
	case h.cfg.Quantile > 0:
		parts = append(parts, fmt.Sprintf("trigger=p%g", h.cfg.Quantile*100))
	default:
		parts = append(parts, fmt.Sprintf("trigger=%v", h.cfg.Delay))
	}
	if h.cfg.Tied {
		parts = append(parts, "tied")
	}
	if h.cfg.CancelRunning {
		parts = append(parts, "cancel-running")
	}
	return strings.Join(parts, " ")
}

// hedgedHeader is the result table layout of a hedged run.
func hedgedHeader() []string {
	return []string{"strategy", "router", "Fmax", "mean flow", "p99",
		"hedges", "copy wins", "cancelled", "dup %"}
}

// hedgedRow formats one hedged cell. Flow statistics cover admitted tasks
// only, so the columns stay comparable when -admit/-shed ride along.
func hedgedRow(strat, router string, em *flowsched.ElasticMetrics) []any {
	return []any{strat, router,
		float64(em.AdmittedMaxFlow()),
		float64(em.MeanFlow()),
		stats.Quantile(em.AdmittedFlows(), 0.99),
		em.HedgesIssued,
		em.HedgeWinsCopy,
		em.HedgesCancelled + em.HedgesRevoked,
		fmt.Sprintf("%.2f", em.DuplicateRatio()*100),
	}
}
