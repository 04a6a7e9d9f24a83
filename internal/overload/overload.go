// Package overload is the overload-control subsystem of the cluster
// simulator: graceful degradation once the offered load approaches or
// exceeds the capacity λ* of LP (15).
//
// The paper's objective — bounding the maximum flow time Fmax — is a latency
// SLO, and its max-load LP (Section 7.2) pins the arrival rate λ* at which a
// replicated cluster saturates. Past λ* every work-conserving policy sees
// queues, and therefore flow times, grow without bound; Bansal–Kulkarni
// (arXiv:1401.7284) shows this is unavoidable unless work is rejected or
// reordered. This package provides the principled remedies a production
// serving system layers on top of the router:
//
//   - AdmissionPolicy: consulted once per task at arrival (AdmitAll,
//     QueueBound, DeadlineAdmit). DeadlineAdmit turns the SLO into an
//     enforced invariant: every task that completes has flow ≤ D + p_max
//     (checked by internal/audit's deadline invariant).
//   - Shedder: mid-run queue trimming (drop-newest / drop-oldest / random /
//     largest-stretch-first) triggered by a watermark on the age of the
//     oldest queued task of any machine.
//   - Ejector: Envoy-style passive outlier detection — an EWMA of observed
//     service-time inflation per server ejects gray-slowed replicas from
//     processing sets, with cooldown re-admission.
//   - Estimator: the SLO guard — EWMA offered-load tracking per replication
//     set, compared against the LP (15) capacity (loadlp.Model.MaxLoad),
//     exposing a brownout signal.
//
// The simulator side lives in the engine (sim.Config.Overload): a nil
// Config.Overload leaves the run byte-identical, so the subsystem costs
// nothing when disabled. This package deliberately does not import
// internal/sim; the simulator imports it and feeds it a View of the live
// cluster state.
package overload

import (
	"fmt"

	"flowsched/internal/core"
)

// View is the read-only cluster snapshot handed to admission policies. Its
// slices alias the simulator's live state — policies must not retain or
// mutate them.
type View struct {
	Now        core.Time
	M          int
	Completion []core.Time // earliest instant each server runs dry
	QueueLen   []int       // queued-or-running requests per server
	Live       []bool      // nil when the run has no crash faults
	Ejected    []bool      // nil when no Ejector is configured
}

// Backlog returns how far server j's completion horizon extends past now
// (0 for an idle server).
func (v *View) Backlog(j int) core.Time {
	if b := v.Completion[j] - v.Now; b > 0 {
		return b
	}
	return 0
}

// Usable reports whether server j is live and not ejected.
func (v *View) Usable(j int) bool {
	if v.Live != nil && !v.Live[j] {
		return false
	}
	if v.Ejected != nil && v.Ejected[j] {
		return false
	}
	return true
}

// eachUsable calls f for every usable server of the task's processing set
// (every usable server when the set is nil) and reports whether any was
// usable.
func (v *View) eachUsable(set core.ProcSet, f func(j int)) bool {
	any := false
	if set == nil {
		for j := 0; j < v.M; j++ {
			if v.Usable(j) {
				any = true
				f(j)
			}
		}
		return any
	}
	for _, j := range set {
		if v.Usable(j) {
			any = true
			f(j)
		}
	}
	return any
}

// Config bundles the overload controls of one guarded run. Any field may be
// nil (that control is off); a nil *Config disables the subsystem entirely:
// a nil sim.Config.Overload leaves the run byte-identical.
//
// A Config carries per-run mutable state (the shedder's RNG, the ejector's
// EWMAs, the estimator's load tracking); the simulator resets it at the
// start of every run, so a Config may be reused across sequential runs but
// not shared by concurrent ones.
type Config struct {
	// Admission is consulted once per arriving task; nil admits everything.
	Admission AdmissionPolicy
	// Shedder trims standing queues when the oldest queued task of a machine
	// grows older than its watermark; nil never sheds.
	Shedder *Shedder
	// Ejector temporarily removes gray-slowed servers from processing sets;
	// nil never ejects.
	Ejector *Ejector
	// Guard is the SLO guard: offered load vs LP-capacity tracking with a
	// brownout signal. Advisory — it rejects nothing by itself.
	Guard *Estimator
}

// Validate checks the configuration against a cluster of m machines.
func (c *Config) Validate(m int) error {
	if c == nil {
		return nil
	}
	if c.Shedder != nil {
		if err := c.Shedder.validate(); err != nil {
			return err
		}
	}
	if c.Ejector != nil {
		if err := c.Ejector.validate(); err != nil {
			return err
		}
	}
	if c.Guard != nil {
		if err := c.Guard.validate(m); err != nil {
			return err
		}
	}
	if b, ok := c.Admission.(Budgeted); ok && b.Budget() <= 0 {
		return fmt.Errorf("overload: admission budget must be positive, got %v", b.Budget())
	}
	if v, ok := c.Admission.(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Reset clears the per-run mutable state for a cluster of m machines. The
// simulator calls it once at the start of every guarded run (mirroring
// sim.Resettable routers).
func (c *Config) Reset(m int) {
	if c == nil {
		return
	}
	if c.Shedder != nil {
		c.Shedder.reset()
	}
	if c.Ejector != nil {
		c.Ejector.reset(m)
	}
	if c.Guard != nil {
		c.Guard.reset()
	}
}
