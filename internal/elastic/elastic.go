// Package elastic is the online membership layer of the cluster simulator:
// the ring of machines grows and shrinks *during* a run, either on a
// pre-agreed script or driven by the overload subsystem's capacity estimator
// (scale up on sustained brownout, scale down on sustained low utilization,
// with hysteresis and cooldown).
//
// The paper's model fixes m for the whole run; this package relaxes that
// while keeping its ring structure intact. The cluster is a fixed ring of
// Capacity machine *slots* (stable ids 0..Capacity−1, so fault plans and
// per-server metrics keep their indexing), of which only a prefix-by-walk
// subset is active at any instant:
//
//   - Scale-up activates the lowest inactive slot after a warm-up/setup
//     delay (Mäcker et al.'s setup-times model, PAPERS.md): the joiner is
//     announced immediately but accepts work only WarmUp later.
//   - Scale-down drains the highest active slot: its running request
//     finishes in place (non-preemptive execution), its queued requests are
//     handed off to the surviving members of each task's processing set.
//
// Processing sets are remapped onto the active subring by a deterministic
// walk (see Effective): the ring interval I_k(u) of Section 7.2 becomes the
// first k active machines clockwise from u. With every slot active this is
// exactly the static interval, so a full-capacity elastic run routes
// restricted work like a static one; with fewer members, intervals "split"
// across the gaps, which is precisely how consistent-hashing stores rebalance
// ownership when nodes join and leave.
//
// This package deliberately does not import internal/sim: the simulator
// (sim.Config.Elastic) imports it and replays the decisions; internal/audit
// imports it to re-derive dispatch-time eligibility from the Membership log
// with the very same walk, so engine and auditor cannot disagree.
package elastic

import (
	"fmt"
	"math"

	"flowsched/internal/core"
	"flowsched/internal/overload"
)

// Event is one scripted membership change: at instant At, add Delta machines
// (Delta > 0, each subject to the warm-up delay) or drain −Delta machines
// (Delta < 0). Scripted events clamp against Min/Max instead of failing, so
// a script composed with an autoscaler stays well-defined.
type Event struct {
	At    core.Time `json:"at"`
	Delta int       `json:"delta"`
}

// Autoscaler drives membership from the PR-5 SLO guard: it scales up when
// the estimated offered load sustains above UpUtil × the active capacity and
// down when it sustains below DownUtil × the capacity the cluster would have
// *after* shrinking, with a cooldown between decisions. The asymmetric
// thresholds (UpUtil > DownUtil) are the hysteresis band that prevents
// flapping.
type Autoscaler struct {
	// Guard supplies the offered-load estimate (overload.Estimator.
	// OfferedLoad). It may be the same estimator as overload.Config.Guard —
	// the engine then feeds it once per arrival, not twice.
	Guard *overload.Estimator
	// UpUtil is the scale-up threshold as a fraction of active capacity
	// (default 0.9, matching the estimator's brownout headroom).
	UpUtil float64
	// DownUtil is the scale-down threshold (default 0.5): shrink only when
	// the survivors would still run below this utilization.
	DownUtil float64
	// Sustain is how long a threshold crossing must hold before the
	// autoscaler acts (0 = act on the first crossing).
	Sustain core.Time
	// Cooldown is the minimum time between two scale decisions (0 = none).
	Cooldown core.Time
	// Step is the number of machines added or drained per decision
	// (default 1).
	Step int
	// MachineCapacity is the sustainable arrival rate of one machine; the
	// active capacity is MachineCapacity × members. Default: Guard.Capacity
	// divided by the run's full machine count — the LP capacity λ* scaled
	// down proportionally.
	MachineCapacity float64
}

func (a *Autoscaler) upUtil() float64 {
	if a.UpUtil > 0 {
		return a.UpUtil
	}
	return 0.9
}

func (a *Autoscaler) downUtil() float64 {
	if a.DownUtil > 0 {
		return a.DownUtil
	}
	return 0.5
}

func (a *Autoscaler) step() int {
	if a.Step > 0 {
		return a.Step
	}
	return 1
}

// perMachine resolves the per-machine capacity for a cluster whose full slot
// count is capacity.
func (a *Autoscaler) perMachine(capacity int) float64 {
	if a.MachineCapacity > 0 {
		return a.MachineCapacity
	}
	if a.Guard != nil && a.Guard.Capacity > 0 && capacity > 0 {
		return a.Guard.Capacity / float64(capacity)
	}
	return 0
}

func (a *Autoscaler) validate() error {
	if a.Guard == nil {
		return fmt.Errorf("elastic: autoscaler needs a capacity estimator (Guard)")
	}
	if a.UpUtil < 0 || a.DownUtil < 0 {
		return fmt.Errorf("elastic: autoscaler thresholds must be non-negative (up=%v down=%v)", a.UpUtil, a.DownUtil)
	}
	if a.downUtil() >= a.upUtil() {
		return fmt.Errorf("elastic: autoscaler needs DownUtil < UpUtil for hysteresis, got down=%v up=%v",
			a.downUtil(), a.upUtil())
	}
	if a.Sustain < 0 || math.IsNaN(float64(a.Sustain)) || math.IsInf(float64(a.Sustain), 0) {
		return fmt.Errorf("elastic: autoscaler sustain %v must be finite and non-negative", a.Sustain)
	}
	if a.Cooldown < 0 || math.IsNaN(float64(a.Cooldown)) || math.IsInf(float64(a.Cooldown), 0) {
		return fmt.Errorf("elastic: autoscaler cooldown %v must be finite and non-negative", a.Cooldown)
	}
	if a.Step < 0 {
		return fmt.Errorf("elastic: autoscaler step %d must be non-negative", a.Step)
	}
	if a.MachineCapacity < 0 || math.IsNaN(a.MachineCapacity) || math.IsInf(a.MachineCapacity, 0) {
		return fmt.Errorf("elastic: autoscaler machine capacity %v must be finite and non-negative", a.MachineCapacity)
	}
	return nil
}

// Config describes the elastic membership of one run. The instance's M is
// the *capacity* — the total number of machine slots — and membership moves
// within [Min, Max] starting from Initial. A nil *Config disables the layer
// entirely: a nil sim.Config.Elastic leaves the run byte-identical.
type Config struct {
	// Initial is the number of active machines at t = 0 (slots 0..Initial−1).
	// 0 means full capacity.
	Initial int
	// Min / Max bound the membership (defaults 1 and the capacity). Keep
	// Min ≥ the replication factor k, or a deep scale-down leaves fewer
	// machines than a set wants — see replicate.CheckK and the facade's
	// ValidateReplication.
	Min, Max int
	// WarmUp is the setup delay between a scale-up decision and the joiner
	// accepting work.
	WarmUp core.Time
	// Script is a pre-agreed sequence of scale events, replayed alongside
	// (and composable with) the autoscaler.
	Script []Event
	// Auto, when non-nil, attaches the estimator-driven autoscaler.
	Auto *Autoscaler
}

// InitialMembers resolves the starting membership against the capacity
// (Initial, or full capacity when 0).
func (c *Config) InitialMembers(capacity int) int {
	if c.Initial > 0 {
		return c.Initial
	}
	return capacity
}

// MinMembers resolves the lower membership bound (Min, or 1 when 0).
func (c *Config) MinMembers() int {
	if c.Min > 0 {
		return c.Min
	}
	return 1
}

// MaxMembers resolves the upper membership bound (Max, or the capacity
// when 0).
func (c *Config) MaxMembers(capacity int) int {
	if c.Max > 0 {
		return c.Max
	}
	return capacity
}

// Validate checks the configuration against a cluster of capacity machine
// slots. A nil config is valid (the layer is off).
func (c *Config) Validate(capacity int) error {
	if c == nil {
		return nil
	}
	if capacity < 1 {
		return fmt.Errorf("elastic: need at least one machine slot, got %d", capacity)
	}
	init, lo, hi := c.InitialMembers(capacity), c.MinMembers(), c.MaxMembers(capacity)
	if c.Initial < 0 || init > capacity {
		return fmt.Errorf("elastic: initial membership %d outside [1, %d]", c.Initial, capacity)
	}
	if c.Min < 0 || c.Max < 0 {
		return fmt.Errorf("elastic: negative membership bounds min=%d max=%d", c.Min, c.Max)
	}
	if lo > hi || hi > capacity {
		return fmt.Errorf("elastic: membership bounds [%d, %d] invalid for capacity %d", lo, hi, capacity)
	}
	if init < lo || init > hi {
		return fmt.Errorf("elastic: initial membership %d outside bounds [%d, %d]", init, lo, hi)
	}
	if c.WarmUp < 0 || math.IsNaN(float64(c.WarmUp)) || math.IsInf(float64(c.WarmUp), 0) {
		return fmt.Errorf("elastic: warm-up %v must be finite and non-negative", c.WarmUp)
	}
	for i, ev := range c.Script {
		if ev.Delta == 0 {
			return fmt.Errorf("elastic: script event %d at t=%v has zero delta", i, ev.At)
		}
		if ev.At < 0 || math.IsNaN(float64(ev.At)) || math.IsInf(float64(ev.At), 0) {
			return fmt.Errorf("elastic: script event %d instant %v must be finite and non-negative", i, ev.At)
		}
	}
	if c.Auto != nil {
		if err := c.Auto.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Controller is the autoscaler's per-run hysteresis state machine. The
// engine feeds it at every arrival; it answers with the signed machine delta
// to apply now (0 = hold). It is deterministic: decisions depend only on the
// estimator's state and simulated time.
type Controller struct {
	auto   *Autoscaler
	perCap float64

	upSince   core.Time // first instant of the current above-threshold streak (−1 = none)
	downSince core.Time // first instant of the current below-threshold streak (−1 = none)
	last      core.Time // instant of the last scale decision
}

// NewController builds the controller for a run on capacity machine slots.
// It returns nil when the config has no autoscaler.
func NewController(c *Config, capacity int) *Controller {
	if c == nil || c.Auto == nil {
		return nil
	}
	return &Controller{
		auto:      c.Auto,
		perCap:    c.Auto.perMachine(capacity),
		upSince:   -1,
		downSince: -1,
		last:      core.Time(math.Inf(-1)),
	}
}

// Reset reinitializes c in place for a run on capacity machine slots,
// exactly as NewController would build it, and reports whether the config has
// an autoscaler at all (false leaves c untouched and means "run without a
// controller"). It lets sim's run arena keep one Controller value across runs
// instead of allocating a fresh one per run.
func (c *Controller) Reset(cfg *Config, capacity int) bool {
	if cfg == nil || cfg.Auto == nil {
		return false
	}
	*c = Controller{
		auto:      cfg.Auto,
		perCap:    cfg.Auto.perMachine(capacity),
		upSince:   -1,
		downSince: -1,
		last:      core.Time(math.Inf(-1)),
	}
	return true
}

// Decide evaluates the autoscaler at instant now with members active
// machines and pending machines still warming up, bounded by [min, max]. It
// returns the number of machines to add (> 0), drain (< 0) or 0 to hold.
func (c *Controller) Decide(now core.Time, members, pending, min, max int) int {
	load := c.auto.Guard.OfferedLoad()
	if load <= 0 || c.perCap <= 0 {
		c.upSince, c.downSince = -1, -1
		return 0
	}
	// Committed capacity counts warming machines: a second scale-up before
	// the first joiner is ready would double-provision for the same burst.
	committed := c.perCap * float64(members+pending)
	after := c.perCap * float64(members+pending-c.auto.step())
	switch {
	case load > c.auto.upUtil()*committed:
		if c.upSince < 0 {
			c.upSince = now
		}
		c.downSince = -1
	case members+pending > min && load < c.auto.downUtil()*after:
		if c.downSince < 0 {
			c.downSince = now
		}
		c.upSince = -1
	default:
		c.upSince, c.downSince = -1, -1
		return 0
	}
	if now-c.last < c.auto.Cooldown {
		return 0
	}
	if c.upSince >= 0 && now-c.upSince >= c.auto.Sustain {
		d := c.auto.step()
		if members+pending+d > max {
			d = max - members - pending
		}
		if d <= 0 {
			return 0
		}
		c.last, c.upSince = now, -1
		return d
	}
	if c.downSince >= 0 && now-c.downSince >= c.auto.Sustain {
		d := c.auto.step()
		if members+pending-d < min {
			d = members + pending - min
		}
		if d <= 0 {
			return 0
		}
		c.last, c.downSince = now, -1
		return -d
	}
	return 0
}
