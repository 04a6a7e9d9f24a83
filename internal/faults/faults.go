// Package faults models server failures for the cluster simulator: a
// FaultPlan is a scripted set of outages — server j is down on the
// half-open interval [From, Until) — that the simulator replays as
// discrete down/up events. Plans can be authored directly (Down), drawn
// from an MTBF/MTTR renewal process (Generate), validated, normalized and
// round-tripped through JSON so a faulty run is exactly reproducible, the
// same way instances are dumped and replayed.
//
// The model matches the replication story of Section 7: processing sets
// M_i exist because replicas fail; a plan describes *when* they fail so
// the flow-time behavior of the routing policies can be stress-tested
// under the very faults replication is for.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flowsched/internal/core"
)

// Outage marks server Server as down on [From, Until): it stops serving at
// From (in-flight work is lost) and accepts work again at Until.
type Outage struct {
	Server int       `json:"server"`
	From   core.Time `json:"from"`
	Until  core.Time `json:"until"`
}

// Duration returns Until - From.
func (o Outage) Duration() core.Time { return o.Until - o.From }

// Plan is a fault schedule for a cluster of M servers: binary outages
// (crash failures) plus gray-failure slowdown segments (see gray.go). The
// zero Outages/Slowdowns slices are the healthy plan: no server ever fails
// or degrades.
type Plan struct {
	M         int        `json:"m"`
	Outages   []Outage   `json:"outages,omitempty"`
	Slowdowns []Slowdown `json:"slowdowns,omitempty"`
}

// Empty returns the healthy plan for m servers (no outages). Simulating
// under it is exactly the fault-free simulation.
func Empty(m int) *Plan { return &Plan{M: m} }

// Down appends a scripted outage for server on [from, until) and returns
// the plan for chaining. Call Validate (or let the simulator do it) after
// building a plan by hand.
func (p *Plan) Down(server int, from, until core.Time) *Plan {
	p.Outages = append(p.Outages, Outage{Server: server, From: from, Until: until})
	return p
}

// IsEmpty reports whether the plan contains no outages and no slowdowns.
func (p *Plan) IsEmpty() bool {
	return p == nil || (len(p.Outages) == 0 && len(p.Slowdowns) == 0)
}

// Validate checks the plan invariants: m ≥ 1, every outage on a server in
// [0, m), finite non-negative From, finite Until strictly after From.
// Overlapping outages on one server are allowed (Normalize merges them);
// an outage must end — a server that never recovers would strand parked
// requests forever, which the simulator refuses to model.
func (p *Plan) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("faults: need at least one server, got %d", p.M)
	}
	for i, o := range p.Outages {
		if o.Server < 0 || o.Server >= p.M {
			return fmt.Errorf("faults: outage %d: server %d out of range [0,%d)", i, o.Server, p.M)
		}
		if o.From < 0 || math.IsNaN(o.From) || math.IsInf(o.From, 0) {
			return fmt.Errorf("faults: outage %d: invalid start %v", i, o.From)
		}
		if math.IsNaN(o.Until) || math.IsInf(o.Until, 0) || o.Until <= o.From {
			return fmt.Errorf("faults: outage %d: invalid end %v (must be finite, after %v)", i, o.Until, o.From)
		}
	}
	perServer := make(map[int][]Slowdown)
	for i, s := range p.Slowdowns {
		if s.Server < 0 || s.Server >= p.M {
			return fmt.Errorf("faults: slowdown %d: server %d out of range [0,%d)", i, s.Server, p.M)
		}
		if s.From < 0 || math.IsNaN(s.From) || math.IsInf(s.From, 0) {
			return fmt.Errorf("faults: slowdown %d: invalid start %v", i, s.From)
		}
		if math.IsNaN(s.Until) || math.IsInf(s.Until, 0) || s.Until <= s.From {
			return fmt.Errorf("faults: slowdown %d: invalid end %v (must be finite, after %v)", i, s.Until, s.From)
		}
		if s.Factor <= 0 || math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("faults: slowdown %d: invalid factor %v (must be finite, positive)", i, s.Factor)
		}
		perServer[s.Server] = append(perServer[s.Server], s)
	}
	// Overlapping slowdowns on one server have no well-defined speed; unlike
	// outages (where overlap just means "still down") they are rejected.
	for j, ss := range perServer {
		sort.Slice(ss, func(a, b int) bool { return ss[a].From < ss[b].From })
		for i := 1; i < len(ss); i++ {
			if ss[i].From < ss[i-1].Until && ss[i].Factor != ss[i-1].Factor {
				return fmt.Errorf("faults: server %d: slowdowns [%v,%v)@%v and [%v,%v)@%v overlap with different factors",
					j, ss[i-1].From, ss[i-1].Until, ss[i-1].Factor, ss[i].From, ss[i].Until, ss[i].Factor)
			}
		}
	}
	return nil
}

// Normalize returns an equivalent plan whose outages are sorted by (From,
// Server) with overlapping or touching intervals of the same server merged,
// so each server alternates strictly down/up. The receiver is not modified.
func (p *Plan) Normalize() *Plan {
	out := &Plan{M: p.M}
	if p.IsEmpty() {
		return out
	}
	perServer := make(map[int][]Outage)
	for _, o := range p.Outages {
		perServer[o.Server] = append(perServer[o.Server], o)
	}
	for j, os := range perServer {
		sort.Slice(os, func(a, b int) bool { return os[a].From < os[b].From })
		merged := []Outage{os[0]}
		for _, o := range os[1:] {
			last := &merged[len(merged)-1]
			if o.From <= last.Until {
				if o.Until > last.Until {
					last.Until = o.Until
				}
			} else {
				merged = append(merged, o)
			}
		}
		for i := range merged {
			merged[i].Server = j
		}
		out.Outages = append(out.Outages, merged...)
	}
	sort.Slice(out.Outages, func(a, b int) bool {
		if out.Outages[a].From != out.Outages[b].From {
			return out.Outages[a].From < out.Outages[b].From
		}
		return out.Outages[a].Server < out.Outages[b].Server
	})
	out.Slowdowns = p.normalizedSlowdowns()
	return out
}

// DownAt reports whether server j is down at instant t (From inclusive,
// Until exclusive).
func (p *Plan) DownAt(j int, t core.Time) bool {
	for _, o := range p.Outages {
		if o.Server == j && t >= o.From && t < o.Until {
			return true
		}
	}
	return false
}

// AnyDownAt reports whether any server is down at instant t.
func (p *Plan) AnyDownAt(t core.Time) bool {
	for _, o := range p.Outages {
		if t >= o.From && t < o.Until {
			return true
		}
	}
	return false
}

// Downtime returns each server's total down time, clipped to the horizon
// [0, horizon). Overlapping outages are merged first; a healthy plan skips
// the normalization walk.
func (p *Plan) Downtime(horizon core.Time) []core.Time {
	if len(p.Outages) > 0 {
		p = p.Normalize()
	}
	return p.NormalDowntimeInto(nil, horizon)
}

// NormalDowntimeInto is Downtime for a plan Normalize returned, written into
// a caller-provided buffer: buf is resliced to M (reallocating only when its
// capacity is short), zeroed and filled. It sums the outages as they stand,
// so the simulator's per-run finalization, which passes the plan it
// normalized on entry and an arena's buffer, allocates nothing.
func (p *Plan) NormalDowntimeInto(buf []core.Time, horizon core.Time) []core.Time {
	down := buf
	if cap(down) < p.M {
		down = make([]core.Time, p.M)
	} else {
		down = down[:p.M]
		for j := range down {
			down[j] = 0
		}
	}
	for _, o := range p.Outages {
		from, until := o.From, o.Until
		if until > horizon {
			until = horizon
		}
		if from < until {
			down[o.Server] += until - from
		}
	}
	return down
}

// Availability returns the fraction of server·time the cluster was up over
// [0, horizon): 1 − Σ_j downtime_j / (m · horizon). A healthy plan (or a
// non-positive horizon) has availability 1.
func (p *Plan) Availability(horizon core.Time) float64 {
	if horizon <= 0 || p.M == 0 {
		return 1
	}
	var total core.Time
	for _, d := range p.Downtime(horizon) {
		total += d
	}
	return 1 - total/(horizon*core.Time(p.M))
}

// MeanRepairTime returns the mean outage duration of the normalized plan
// (0 for a healthy plan) — the empirical MTTR, used as the default
// recovery-spike window.
func (p *Plan) MeanRepairTime() core.Time {
	n := p.Normalize()
	if len(n.Outages) == 0 {
		return 0
	}
	var sum core.Time
	for _, o := range n.Outages {
		sum += o.Duration()
	}
	return sum / core.Time(len(n.Outages))
}

// End returns the last recovery instant of the plan — the end of its last
// outage or slowdown segment (0 for a healthy plan).
func (p *Plan) End() core.Time {
	var end core.Time
	for _, o := range p.Outages {
		if o.Until > end {
			end = o.Until
		}
	}
	for _, s := range p.Slowdowns {
		if s.Until > end {
			end = s.Until
		}
	}
	return end
}

// Extend lifts a plan authored for a smaller cluster onto m machine slots:
// outage and slowdown segments keep their server ids (machine ids are
// stable slots under elastic membership, so a slowdown scripted for server j
// still hits slot j after it joins mid-run), only the cluster size grows.
// Shrinking below the plan's size is rejected — segments for servers ≥ m
// would silently vanish; drop them explicitly instead.
func (p *Plan) Extend(m int) (*Plan, error) {
	if m < p.M {
		return nil, fmt.Errorf("faults: cannot extend a plan for %d servers onto %d: segments for servers %d..%d would be dropped",
			p.M, m, m, p.M-1)
	}
	out := p.Clone()
	out.M = m
	return out, nil
}

// Clone returns a deep copy of the plan.
func (p *Plan) Clone() *Plan {
	out := &Plan{M: p.M, Outages: make([]Outage, len(p.Outages))}
	copy(out.Outages, p.Outages)
	if len(p.Slowdowns) > 0 {
		out.Slowdowns = make([]Slowdown, len(p.Slowdowns))
		copy(out.Slowdowns, p.Slowdowns)
	}
	return out
}

// Generate draws a fault plan from a per-server renewal process over the
// horizon [0, horizon): each server alternates exponentially distributed
// up periods (mean mtbf) and down periods (mean mttr), independently of
// the others — the standard MTBF/MTTR availability model. Outages are
// clipped so they end within 2× the horizon (they must be finite); a
// non-positive mtbf or mttr, or horizon, yields the healthy plan.
func Generate(m int, horizon core.Time, mtbf, mttr float64, rng *rand.Rand) *Plan {
	p := &Plan{M: m}
	if mtbf <= 0 || mttr <= 0 || horizon <= 0 {
		return p
	}
	for j := 0; j < m; j++ {
		t := core.Time(rng.ExpFloat64() * mtbf)
		for t < horizon {
			d := core.Time(rng.ExpFloat64() * mttr)
			until := t + d
			if max := 2 * horizon; until > max {
				until = max
			}
			if until > t {
				p.Outages = append(p.Outages, Outage{Server: j, From: t, Until: until})
			}
			t = until + core.Time(rng.ExpFloat64()*mtbf)
		}
	}
	return p.Normalize()
}
