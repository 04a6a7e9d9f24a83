// Package flowsched is an online-scheduling library for bounding the
// maximum flow time (response time) under structured processing set
// restrictions, reproducing Canon, Dugois and Marchal, "Bounding the Flow
// Time in Online Scheduling with Structured Processing Sets" (IPPS 2022 /
// INRIA RR-9446).
//
// The model is P|online-r_i,M_i|Fmax: n tasks with release times r_i,
// processing times p_i and processing sets M_i (the machines allowed to run
// each task, induced in key-value stores by data replication) are scheduled
// online, without preemption, on m identical machines to minimize
// Fmax = max_i (C_i − r_i).
//
// The package exposes:
//
//   - the scheduling model (Task, Instance, Schedule, ProcSet) with full
//     feasibility validation;
//   - the online schedulers of the paper: EFT (immediate dispatch,
//     Algorithm 2) with Min/Max/Rand tie-breaks, and the centralized-queue
//     FIFO (Algorithm 1), which EFT provably equals on unrestricted
//     instances (Proposition 1);
//   - offline baselines: certified lower bounds, exact brute force, and the
//     polynomial exact optimum for unit tasks;
//   - processing-set structure classification (interval, nested, inclusive,
//     disjoint — Figure 1);
//   - the key-value store toolkit: replication strategies (overlapping ring
//     and disjoint blocks, Section 7.2), Zipf popularity (Section 7.1),
//     Poisson workloads and a discrete-event cluster simulator
//     (Section 7.4);
//   - the max-load analysis of LP (15) with three cross-checked solvers;
//   - the adversary constructions behind every lower bound of Table 2
//     (Theorems 3, 4, 5, 7, 8, 9, 10).
//
// See the examples/ directory for runnable entry points and EXPERIMENTS.md
// for the paper-versus-measured record.
package flowsched

import (
	"math/rand"

	"flowsched/internal/core"
	"flowsched/internal/offline"
	"flowsched/internal/psets"
	"flowsched/internal/sched"
)

// Core model types (see internal/core for method documentation).
type (
	// Time measures instants and durations (float64 seconds/slots).
	Time = core.Time
	// Task is one request: release time, processing time, processing set.
	Task = core.Task
	// Instance is a scheduling problem on M machines.
	Instance = core.Instance
	// Schedule maps tasks to machines and start times and computes Fmax.
	Schedule = core.Schedule
	// ProcSet is a processing set restriction (nil = all machines).
	ProcSet = core.ProcSet
)

// NewInstance builds an instance on m machines; tasks are sorted by release
// time (stable) and renumbered.
func NewInstance(m int, tasks []Task) *Instance { return core.NewInstance(m, tasks) }

// NewSchedule allocates an empty schedule for an instance (all tasks
// unassigned); use Assign to fill it and Validate to check feasibility.
func NewSchedule(inst *Instance) *Schedule { return core.NewSchedule(inst) }

// NewProcSet builds a normalized processing set from machine indices
// (0-based).
func NewProcSet(machines ...int) ProcSet { return core.NewProcSet(machines...) }

// MachineInterval returns the contiguous processing set {lo..hi} (0-based,
// inclusive).
func MachineInterval(lo, hi int) ProcSet { return core.Interval(lo, hi) }

// MachineRingInterval returns the circular interval of k machines starting
// at start on a ring of m machines — the paper's I_k(u). A replication
// factor k outside [1, m] (e.g. after a scale-down below k) is an error.
func MachineRingInterval(start, k, m int) (ProcSet, error) { return core.RingInterval(start, k, m) }

// AllMachines is the unrestricted processing set.
var AllMachines = core.AllMachines

// Scheduling algorithms.
type (
	// Algorithm schedules a whole instance.
	Algorithm = sched.Algorithm
	// OnlineScheduler dispatches tasks irrevocably at release (immediate
	// dispatch property, Section 3).
	OnlineScheduler = sched.Online
	// TieBreak picks one machine from an EFT tie set.
	TieBreak = sched.TieBreak
	// Decision is an immediate-dispatch outcome.
	Decision = sched.Decision
)

// Tie-break policies.
var (
	// TieMin breaks ties by the smallest machine index (EFT-Min).
	TieMin TieBreak = sched.MinTie{}
	// TieMax breaks ties by the largest machine index (EFT-Max).
	TieMax TieBreak = sched.MaxTie{}
)

// TieRand breaks ties uniformly at random (EFT-Rand); every candidate has
// positive probability, as Theorem 9 requires.
func TieRand(rng *rand.Rand) TieBreak { return sched.RandTie{Rng: rng} }

// NewEFT returns the Earliest Finish Time immediate-dispatch scheduler
// (Algorithm 2) with the given tie-break (nil = Min). It supports
// processing set restrictions via Equation (2).
func NewEFT(tie TieBreak) *sched.EFT { return sched.NewEFT(tie) }

// NewFIFO returns the centralized-queue FIFO scheduler (Algorithm 1) with
// the given tie-break (nil = Min). It rejects restricted instances;
// Proposition 1 makes it interchangeable with EFT otherwise.
func NewFIFO(tie TieBreak) Algorithm { return &sched.FIFO{Tie: tie} }

// NewJSQ returns the non-clairvoyant join-shortest-queue baseline.
func NewJSQ() *sched.JSQ { return sched.NewJSQ() }

// NewPerSetAdapter builds the Theorem 6 construction: an independent copy
// of an unrestricted scheduler per disjoint block, giving a
// max_i f(|M_i|)-competitive algorithm from any f(m)-competitive one. Run
// rejects instances whose sets are not a disjoint family.
func NewPerSetAdapter(innerName string, newInner func() OnlineScheduler) *sched.PerSetAdapter {
	return sched.NewPerSetAdapter(innerName, func() sched.Online { return newInner() })
}

// RunOnline feeds an instance, in release order, to an immediate-dispatch
// scheduler and returns the schedule.
func RunOnline(alg OnlineScheduler, inst *Instance) *Schedule {
	return sched.RunOnline(alg, inst)
}

// Offline baselines (internal/offline).

// LowerBound returns a certified lower bound on the optimal Fmax of an
// instance (max of p_max, interval-work and per-set bounds).
func LowerBound(inst *Instance) Time { return offline.LowerBound(inst) }

// OptimalBruteForce returns an exactly optimal schedule for small instances
// (at most offline.MaxBruteForceTasks tasks).
func OptimalBruteForce(inst *Instance) (*Schedule, error) { return offline.BruteForce(inst) }

// OptimalUnit returns the exact optimal Fmax for unit tasks with integer
// releases (binary search + bipartite matching); pass an achievable upper
// bound hi, or 0 for the trivial one.
func OptimalUnit(inst *Instance, hi int) (Time, error) { return offline.UnitOptimal(inst, hi) }

// Structure classification (internal/psets).

// StructureFamily is a deduplicated family of processing sets.
type StructureFamily = psets.Family

// Structures classifies the processing sets of an instance according to
// Figure 1, returning every structure that holds among "disjoint",
// "inclusive", "nested", "interval", or "general".
func Structures(inst *Instance) []string {
	return psets.FromInstance(inst).Classify()
}

// FamilyOf extracts the distinct processing sets of an instance.
func FamilyOf(inst *Instance) StructureFamily { return psets.FromInstance(inst) }
