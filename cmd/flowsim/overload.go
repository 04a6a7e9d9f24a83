package main

import (
	"fmt"
	"strconv"
	"strings"

	"flowsched"
	"flowsched/internal/stats"
)

// ovFlags collects the overload-control flags (-admit, -shed, -eject, -slo)
// and builds one flowsched.OverloadConfig per strategy cell.
type ovFlags struct {
	admit string  // all | queue:LEN[:BACKLOG] | deadline:D
	shed  string  // POLICY:WATERMARK  (newest|oldest|random|stretch)
	eject float64 // ejection factor K (0 = off)
	slo   bool    // attach the LP-capacity SLO guard

	admission flowsched.AdmissionPolicy
	shedder   *flowsched.Shedder
	ejector   *flowsched.OutlierEjector
}

// active reports whether any overload control was requested.
func (o *ovFlags) active() bool {
	return o.admission != nil || o.shedder != nil || o.ejector != nil || o.slo
}

// parse turns the raw flag strings into policy values. It returns a usage
// error (the caller exits 2) on malformed specs.
func (o *ovFlags) parse(seed int64) error {
	switch {
	case o.admit == "" || o.admit == "all":
		if o.admit == "all" {
			o.admission = flowsched.AdmitAll()
		}
	case strings.HasPrefix(o.admit, "queue:"):
		parts := strings.Split(strings.TrimPrefix(o.admit, "queue:"), ":")
		if len(parts) < 1 || len(parts) > 2 {
			return fmt.Errorf("-admit queue wants LEN[:BACKLOG], got %q", o.admit)
		}
		maxQ, err := strconv.Atoi(parts[0])
		if err != nil || maxQ < 1 {
			return fmt.Errorf("-admit queue:LEN wants a positive integer, got %q", parts[0])
		}
		var backlog float64
		if len(parts) == 2 {
			if backlog, err = strconv.ParseFloat(parts[1], 64); err != nil || backlog <= 0 {
				return fmt.Errorf("-admit queue:LEN:BACKLOG wants a positive backlog, got %q", parts[1])
			}
		}
		o.admission = flowsched.QueueBoundAdmission(maxQ, flowsched.Time(backlog))
	case strings.HasPrefix(o.admit, "deadline:"):
		d, err := strconv.ParseFloat(strings.TrimPrefix(o.admit, "deadline:"), 64)
		if err != nil || d <= 0 {
			return fmt.Errorf("-admit deadline:D wants a positive deadline, got %q", o.admit)
		}
		o.admission = flowsched.DeadlineAdmission(flowsched.Time(d))
	default:
		return fmt.Errorf("-admit wants all, queue:LEN[:BACKLOG] or deadline:D, got %q", o.admit)
	}

	if o.shed != "" {
		name, wmStr, ok := strings.Cut(o.shed, ":")
		if !ok {
			return fmt.Errorf("-shed wants POLICY:WATERMARK, got %q", o.shed)
		}
		policy, err := flowsched.ParseShedPolicy(name)
		if err != nil {
			return fmt.Errorf("-shed: %v", err)
		}
		wm, err := strconv.ParseFloat(wmStr, 64)
		if err != nil || wm <= 0 {
			return fmt.Errorf("-shed %s wants a positive watermark, got %q", name, wmStr)
		}
		o.shedder = &flowsched.Shedder{Policy: policy, Watermark: flowsched.Time(wm), Seed: seed}
	}

	if o.eject < 0 {
		return fmt.Errorf("-eject wants a non-negative factor, got %v", o.eject)
	}
	if o.eject > 0 {
		if o.eject <= 1 {
			return fmt.Errorf("-eject factor must exceed 1 (K× the cluster median), got %v", o.eject)
		}
		o.ejector = &flowsched.OutlierEjector{K: o.eject}
	}
	return nil
}

// config assembles the per-cell OverloadConfig. The SLO guard depends on the
// replication strategy (its capacity comes from the max-load LP), so it is
// rebuilt per strategy; the other parts are reset by the simulator.
func (o *ovFlags) config(weights []float64, strat flowsched.ReplicationStrategy) (*flowsched.OverloadConfig, error) {
	cfg := &flowsched.OverloadConfig{
		Admission: o.admission,
		Shedder:   o.shedder,
		Ejector:   o.ejector,
	}
	if o.slo {
		guard, err := flowsched.NewCapacityEstimator(weights, strat)
		if err != nil {
			return nil, fmt.Errorf("flowsim: -slo for %s: %w", strat.Name(), err)
		}
		cfg.Guard = guard
	}
	return cfg, nil
}

// guardedHeader is the result table layout of a guarded run.
func guardedHeader() []string {
	return []string{"strategy", "router", "goodput %", "admitted Fmax", "admitted p99",
		"rejected", "shed", "ejections", "brownouts"}
}

// guardedRow formats one guarded cell.
func guardedRow(strat, router string, om *flowsched.ElasticMetrics) []any {
	return []any{strat, router,
		fmt.Sprintf("%.2f", om.Goodput()*100),
		float64(om.AdmittedMaxFlow()),
		stats.Quantile(om.AdmittedFlows(), 0.99),
		om.RejectedCount(),
		om.ShedCount(),
		om.Ejections,
		om.Brownouts,
	}
}

// describeOverload summarizes the active controls for the run banner.
func (o *ovFlags) describe() string {
	var parts []string
	if o.admission != nil {
		parts = append(parts, "admit="+o.admission.Name())
	}
	if o.shedder != nil {
		parts = append(parts, fmt.Sprintf("shed=%s@%v", o.shedder.Policy, o.shedder.Watermark))
	}
	if o.ejector != nil {
		parts = append(parts, fmt.Sprintf("eject=%v×median", o.eject))
	}
	if o.slo {
		parts = append(parts, "slo-guard")
	}
	return strings.Join(parts, " ")
}
