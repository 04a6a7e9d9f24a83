package sim

import (
	"flowsched/internal/core"
	"flowsched/internal/faults"
	"flowsched/internal/hedge"
	"flowsched/internal/obs"
)

// hdRun is the engine-side runtime of a hedge config: the per-task hedge
// state machine (issued → won / cancelled / revoked) and the live flow-time
// histogram behind the quantile trigger. It exists only when a config is
// present, so the disabled path touches none of it and stays byte-identical
// to a run without the layer.
//
// A speculative copy of task id is the virtual attempt id n + id (n = task
// count): the attempt-window / timing-order / FIFO-link arrays are grown to
// 2n under hedging, so the copy occupies a server queue — and completes from
// its head — exactly like a request of its own while every piece of per-task
// bookkeeping (flows, schedule, dispositions) stays indexed by the real id.
type hdRun struct {
	cfg        *hedge.Config
	ho         obs.HedgeObserver
	hist       *obs.Histogram // live flow-time stream for the quantile trigger
	minSamples int

	done       []bool // effective completion recorded (first win)
	hedged     []bool // a copy was issued (at most one hedge per task)
	copyLive   []bool // the copy occupies a server queue right now
	resolved   []bool // the copy's outcome (win, cancel or revoke) is counted
	priIn      []bool // the primary attempt occupies a server queue right now
	priDropped []bool // primary hit a drop decision while the copy was live (deferred)
	priRevoked []bool // tied mode revoked the primary; the copy is the sole attempt
	wonByCopy  []bool
	copySrv    []int
	copyAt     core.Times
	kills      []int // copies to cancel after a trim's queue surgery

	// Deferred triggers (see rearmHedge): a first attempt timed to end by its
	// trigger instant trigAt[id] pushes no event; trigSeq[id] holds the event
	// queue position it claimed instead (0 = nothing deferred).
	trigAt  []core.Time
	trigSeq []uint64
}

// resolveCopy marks task rid's copy resolved and reports whether it was
// not already: each issued copy counts once, in exactly one of
// HedgeWinsCopy, HedgesCancelled and HedgesRevoked, even though a started
// copy that cannot be cancelled stays queued, where a later crash, drain
// or trim reaches it again.
func (hd *hdRun) resolveCopy(rid int) bool {
	if hd.resolved[rid] {
		return false
	}
	hd.resolved[rid] = true
	return true
}

// retime recomputes server j's unstarted queue suffix back to back from
// instant now (or from the running head's end), re-crediting busy time and
// re-keying j in the head index. It is the one "re-dispatch later" re-timing
// rule, shared by the watermark shedder's trim and the hedge layer's
// first-win cancellations, so the two paths cannot drift apart. Speculative
// copies (ids ≥ n) are re-timed like any queue entry but never touch the
// schedule or flow metrics — those belong to effective completions only.
func (a *Arena) retime(inst *core.Instance, slow [][]faults.Slowdown, j int, now core.Time) {
	n := len(inst.Tasks)
	metrics := &a.metrics
	cur := now
	first := a.fq.head[j]
	if h := a.fq.head[j]; h >= 0 && a.curStart[h] <= now {
		cur = a.curEnd[h]
		first = a.fq.next[h]
	}
	for id := first; id >= 0; id = a.fq.next[id] {
		rid := id
		if rid >= n {
			rid -= n
		}
		task := inst.Tasks[rid]
		start := cur
		end := start + task.Proc
		busy := task.Proc
		if slow != nil && len(slow[j]) > 0 {
			end = faults.FinishTime(slow[j], start, task.Proc)
			busy = end - start
		}
		a.timed++
		a.seq[id] = a.timed
		metrics.Busy[j] += busy - a.busyAdd[id]
		a.curStart[id], a.curEnd[id] = start, end
		a.busyAdd[id] = busy
		if id < n {
			a.sched.Assign(id, j, start)
			metrics.Flows[id] = end - task.Release
		}
		cur = end
	}
	a.st.Completion[j] = cur
	a.rekey(j)
}

// cancelAttempt removes attempt aid (a task or its copy, by virtual id)
// from server j's queue at instant now, reclaiming its busy time and
// re-timing the queue behind it. An attempt that has already entered
// service is only cancelled when cancelRunning is set; otherwise it runs to
// completion as duplicate work and the call reports false. Busy time
// reclaimed before service lands in CancelledWork; the executed part of a
// mid-service cancellation is burned duplicate work (DuplicateWork).
func (a *Arena) cancelAttempt(inst *core.Instance, slow [][]faults.Slowdown, aid, j int, now core.Time, cancelRunning bool) bool {
	metrics := &a.metrics
	if a.curStart[aid] < now {
		if !cancelRunning {
			return false
		}
		executed := now - a.curStart[aid]
		a.fq.remove(j, aid)
		a.st.QueueLen[j]--
		metrics.Busy[j] -= a.busyAdd[aid] - executed
		metrics.DuplicateWork += executed
		metrics.CancelledWork += a.busyAdd[aid] - executed
		a.retime(inst, slow, j, now)
		return true
	}
	a.fq.remove(j, aid)
	a.st.QueueLen[j]--
	metrics.Busy[j] -= a.busyAdd[aid]
	metrics.CancelledWork += a.busyAdd[aid]
	a.retime(inst, slow, j, now)
	return true
}

// armTaskEvent schedules a per-task engine event (a retry re-dispatch, a
// hedge trigger, a tied-pair service-start check) at instant at — the one
// "come back to this task later" re-arm path shared by the retry policy's
// backoff and the hedge triggers. A deferred hedge trigger enters through
// rearmHedge instead, in the position it claimed.
func (a *Arena) armTaskEvent(kind, id int, at core.Time) {
	a.events.Push(at, faultEvent{kind: kind, task: id})
}

// rearmHedge enqueues task id's deferred hedge trigger, if it has one, in
// the event queue position it claimed at dispatch.
//
// A first attempt dispatched to a server without slowdown segments, with
// end ≤ its trigger instant, pushes no trigger: while it stays queued it
// completes by that instant, and the main loop settles every completion at
// an instant before it pops any event there, so the trigger would find the
// task done. Its end cannot move later: retime, the one other writer of
// ends, never starts an attempt later than before, and start + proc rounds
// monotonically. (On a gray server the end comes from faults.FinishTime,
// whose floating-point monotonicity is not proved, so dispatch pushes the
// trigger there.) A trim sheds the task, which hedgeIssue skips. Only two
// things make the trigger live, and each re-arms it here: a crash takes
// the attempt (fail), or a scale-down hands it off (scaleDown). Both run
// at an event or arrival instant whose completions are all settled, so the
// attempt's end, and with it the trigger's instant, still lies ahead. The
// claimed position is the one a push at dispatch would have taken, so the
// events pop in the same order, ties included, as if every trigger had
// been pushed.
func (a *Arena) rearmHedge(id int) {
	hd := &a.hd
	if seq := hd.trigSeq[id]; seq != 0 {
		a.events.PushClaimed(hd.trigAt[id], faultEvent{kind: evHedge, task: id}, seq)
		hd.trigSeq[id] = 0
	}
}

// DuplicateRatio returns the fraction of all server busy time burned on
// losing hedge attempts: DuplicateWork / Σ_j Busy[j] (0 when idle). The
// headline hedge experiment bounds this cost against the p99 win.
func (m *ElasticMetrics) DuplicateRatio() float64 {
	var total core.Time
	for _, b := range m.Busy {
		total += b
	}
	if total <= 0 {
		return 0
	}
	return float64(m.DuplicateWork / total)
}
