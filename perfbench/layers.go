package main

import "fmt"

// perLayerUnits lists every per-layer metric with its unit, in print order.
// A workload that never enters a layer reports 0 for that layer's metrics.
var perLayerUnits = [][2]string{
	{"workload.generate_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.pick_share", "share"},
	{"sim.fastpath_ms", "ms"},
	{"sim.bytes_per_call", "B"},
	{"sim.gc_cycles", "count"},
	{"engine.base_ms", "ms"},
	{"faults.marginal_ms", "ms"},
	{"overload.marginal_ms", "ms"},
	{"elastic.marginal_ms", "ms"},
	{"hedge.marginal_ms", "ms"},
	{"resilience.marginal_ms", "ms"},
	{"obs.marginal_ms", "ms"},
	{"obs.events_per_task", "count"},
	{"obs.hook_ns", "ns"},
	{"hedge.issued_per_ktask", "count"},
	{"hedge.copy_win_share", "share"},
	{"hedge.duplicate_work_share", "share"},
	{"faults.retries_per_ktask", "count"},
	{"resilience.retry_drop_share", "share"},
	{"resilience.breaker_opens", "count"},
	{"overload.rejected_share", "share"},
	{"overload.shed_share", "share"},
	{"overload.ejections", "count"},
	{"elastic.scale_events", "count"},
	{"audit.invariants_ms", "ms"},
	{"offline.lower_bound_ms", "ms"},
	{"audit.lb_share", "share"},
	{"offline.fmax_over_lb", "ratio"},
	{"trace.overhead_share", "share"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer computes the traced run's metrics. plain holds the untraced
// passes, traced the traced ones (spans from index from on), rungs the
// stack ladder (nil elsewhere) and genMs the set-up builds' generation time.
func (b *bench) perLayer(res *result, plain, traced *passLog, rungs []*passLog, rec *recorder, from int, genMs []float64) {
	v := make(map[string]float64)
	// A span's duration is scaled by the mean adjustment of the traced
	// passes, the same factor for every layer.
	f := ratio(sum(traced.adj), sum(traced.raw))
	spanP50 := func(name string) float64 { return median(rec.durations(from, name)) * f }

	v["workload.generate_ms"] = median(genMs)
	// verify calls sim.Run only while setting up; its sim metrics come from
	// the set-up builds' spans.
	simFrom := from
	if len(rec.durations(from, "sim.Run", "sim.Run[fast]", "Arena.RunResilient")) == 0 {
		simFrom = 0
	}
	v["sim.run_ms"] = median(rec.durations(simFrom, "sim.Run", "sim.Run[fast]", "Arena.RunResilient")) * f
	v["sim.fastpath_ms"] = median(rec.durations(simFrom, "sim.Run[fast]")) * f
	// Pick is timed on every sim call but the fast-path ones, so only those
	// make up the share's base.
	var pickedNs, simAlloc float64
	var simCalls int
	for _, s := range rec.spans[simFrom:] {
		if s.Layer == "sim" {
			simAlloc += float64(s.Alloc)
			simCalls++
			if s.Name != "sim.Run[fast]" {
				pickedNs += float64(s.End - s.Start)
			}
		}
	}
	emptyNs, wrapNs := timerCost()
	pickNs := float64(traced.pickNs) - float64(traced.picks)*emptyNs
	v["sim.pick_share"] = ratio(pickNs, pickedNs-float64(traced.picks)*wrapNs)
	v["sim.bytes_per_call"] = ratio(simAlloc, float64(simCalls))
	v["sim.gc_cycles"] = ratio(float64(plain.gcAuto), float64(plain.passes))

	if rungs != nil {
		p50 := make([]float64, len(rungs))
		for r, l := range rungs {
			p50[r] = median(l.adj)
		}
		v["engine.base_ms"] = p50[0]
		for r := 1; r < len(rungs); r++ {
			v[ladderNames[r]+".marginal_ms"] = p50[r] - p50[r-1]
		}
		b.stackCounts(v, traced, emptyNs)
		fmt.Fprintf(b.out, "stack ladder p50 ms:")
		for r, name := range ladderNames {
			fmt.Fprintf(b.out, " %s=%.4f", name, p50[r])
		}
		fmt.Fprintf(b.out, " (n=%d calls per rung)\n", len(rungs[0].adj))
	}

	v["audit.invariants_ms"] = spanP50("audit.Audit(SkipLowerBound)")
	// The audit split in two: the bound's share of the bound plus the
	// invariants, each timed on its own call.
	lb := spanP50("offline.LowerBound")
	v["offline.lower_bound_ms"] = lb
	v["audit.lb_share"] = ratio(lb, lb+v["audit.invariants_ms"])
	var fr []float64
	for _, st := range b.want {
		if st.lb > 0 {
			fr = append(fr, st.fmax/st.lb)
		}
	}
	v["offline.fmax_over_lb"] = median(fr)
	v["trace.overhead_share"] = ratio(median(traced.adj)-median(plain.adj), median(plain.adj))

	for _, nu := range perLayerUnits {
		res.Metrics[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	fmt.Fprintf(b.out, "%-28s %14s %s\n", "per-layer metric", "value", "unit")
	for _, nu := range perLayerUnits {
		fmt.Fprintf(b.out, "%-28s %14.6g %s\n", nu[0], v[nu[0]], nu[1])
	}
	fmt.Fprintf(b.out, "self ms per layer (traced passes, raw):%s\n", formatSelf(rec.selfTimes(from)))
	fmt.Fprintf(b.out, "traced passes: %d (n=%d calls), untraced passes: %d (n=%d calls), traced sim outputs equal untraced: %v\n",
		traced.passes, len(traced.adj), plain.passes, len(plain.adj), b.mismatches == 0)
	fmt.Fprintf(b.out, "reference loop: median %.4f ms over %d timings, nominal %.4g ms\n", median(b.refMs), len(b.refMs), b.o.nominal)
}

// stackCounts fills the stack workload's count metrics from the last traced
// pass's engine metrics and probe counters, and the hook timings from all
// traced passes.
func (b *bench) stackCounts(v map[string]float64, traced *passLog, emptyNs float64) {
	var sum stackTally
	calls := 0
	for _, o := range traced.outs {
		if o.stack == nil {
			continue
		}
		t := o.stack.tally()
		calls++
		sum.tasks += t.tasks
		sum.hedges += t.hedges
		sum.copyWins += t.copyWins
		sum.dupWork += t.dupWork
		sum.busy += t.busy
		sum.retries += t.retries
		sum.requested += t.requested
		sum.dropped += t.dropped
		sum.opens += t.opens
		sum.rejected += t.rejected
		sum.shed += t.shed
		sum.ejections += t.ejections
		sum.scaleEvents += t.scaleEvents
	}
	tasks, perCall := float64(sum.tasks), float64(calls)
	v["obs.events_per_task"] = ratio(float64(traced.hooks), float64(traced.tasks))
	v["obs.hook_ns"] = ratio(float64(traced.hookNs)-float64(traced.hooks)*emptyNs, float64(traced.hooks))
	v["hedge.issued_per_ktask"] = ratio(1000*float64(sum.hedges), tasks)
	v["hedge.copy_win_share"] = ratio(float64(sum.copyWins), float64(sum.hedges))
	v["hedge.duplicate_work_share"] = ratio(sum.dupWork, sum.busy)
	v["faults.retries_per_ktask"] = ratio(1000*float64(sum.retries), tasks)
	v["resilience.retry_drop_share"] = ratio(float64(sum.dropped), float64(sum.requested))
	v["resilience.breaker_opens"] = ratio(float64(sum.opens), perCall)
	v["overload.rejected_share"] = ratio(float64(sum.rejected), tasks)
	v["overload.shed_share"] = ratio(float64(sum.shed), tasks)
	v["overload.ejections"] = ratio(float64(sum.ejections), perCall)
	v["elastic.scale_events"] = ratio(float64(sum.scaleEvents), perCall)
}
