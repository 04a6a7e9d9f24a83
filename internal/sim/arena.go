package sim

import (
	"math"

	"flowsched/internal/core"
	"flowsched/internal/elastic"
	"flowsched/internal/eventq"
	"flowsched/internal/resilience"
)

// Arena owns every per-run buffer of the unified engine (elasticsim.go): the
// router-visible State, the schedule's assignment arrays, all metrics slices,
// the per-attempt timing state, the per-server FIFOs (fifoQueues — an
// index-chained freelist, not [][]int), the head index that orders their
// completions, the engine event queue, the parked-task buffers and the
// overload/elastic runtime scratch. A fresh run allocates all of this
// (~2,400 allocations for a 5,000-task instance, almost all of it FIFO
// append traffic); running through a reused Arena reslices it instead,
// taking the steady-state cost to a handful of allocations per run (pinned
// by TestRunFaultyAllocs and TestRunGuardedAdmitAllocs, gated by the
// SimRun*Steady benchreg entries).
//
// Ownership contract: the *core.Schedule and *ElasticMetrics returned by
// Arena.Run point INTO the arena. They are valid until the arena's next Run
// call, which recycles them in place. Callers that need results to outlive
// the next run must copy what they keep — or give each run its own arena
// (NewArena().Run).
//
// An Arena is not safe for concurrent use; parallel trial loops keep one per
// worker (internal/chaos and internal/experiments use a sync.Pool).
type Arena struct {
	st State

	// Schedule backing (sched.Machine/sched.Start alias machine/start).
	machine []int
	start   []core.Time
	sched   core.Schedule

	// Metrics backing. The metrics value is rebuilt per run; the slices are
	// recycled. rejected/shedded/reason attach only on guarded runs,
	// dispatched only on elastic or breaker runs — disabled layers keep
	// their nil fields, exactly as a fresh run would.
	metrics    ElasticMetrics
	flows      []core.Time
	busy       []core.Time
	attempts   []int
	dropped    []bool
	parkedBits []bool
	releases   []core.Time // the tasks' releases, on runs with a shedder
	downtime   []core.Time
	rejected   []bool
	shedded    []bool
	reason     []string
	dispatched core.Times

	// Engine state.
	live     []bool
	down     int // servers down right now (live[j] false)
	curStart []core.Time
	curEnd   []core.Time
	busyAdd  []core.Time
	seq      []uint64 // per attempt: when it was last timed (see enqueue)
	timed    uint64   // timings so far this run; seq's clock
	fq       fifoQueues
	heads    headIndex
	// headFloor is at most the release of every queue head's task: the
	// watermark shedder scans the heads only when an arrival is older than
	// it by more than the watermark (Arena.Run's arrive). rekey and enqueue,
	// the only places a head is keyed, lower it; a head leaving its queue
	// can only raise the true minimum, so the bound stays valid. Only runs
	// with a shedder (shedding) keep it.
	headFloor core.Time
	shedding  bool
	parked    []int // requests waiting for any replica to recover
	wake      []int // the tasks a wake walk re-dispatches

	events eventq.Queue[faultEvent]

	liveBuf core.ProcSet // candidate-set scratch (candidates)

	// memberEFT is set for a run whose router is an EFTRouter with the Min
	// or Max tie-break (nil is Min), decided once per run as sim.Run's
	// eftLoop decides; eftLast selects Max. place then picks from a
	// candidate set with memberPick, the EFT loop's own member scan.
	memberEFT, eftLast bool

	// Overload / elastic / hedge / resilience runtimes (their scratch slices
	// are recycled via the struct fields; see the ocfg/ecfg/hcfg/rcfg setup
	// blocks in elasticsim.go).
	ov         ovRun
	el         elRun
	hd         hdRun
	rs         rsRun
	membership elastic.Membership
	ctrl       elastic.Controller
	breakers   resilience.Breakers
}

// NewArena returns an empty arena. The first run sizes it; later runs of the
// same shape reuse every buffer.
func NewArena() *Arena { return &Arena{} }

// Reset prepares the arena for a run of n tasks on m machine slots: every
// size-dependent buffer is resliced (reallocating only when capacity is
// short) and reinitialized to its fresh-run state. Run calls it
// internally; it is exported so callers sizing an arena ahead of a batch can
// pre-grow it once.
func (a *Arena) Reset(n, m int) {
	a.st.Now = 0
	a.st.M = m
	a.st.Completion = resliceZero(a.st.Completion, m)
	a.st.QueueLen = resliceZero(a.st.QueueLen, m)

	a.machine = grow(a.machine, n)
	a.start = grow(a.start, n)
	for i := 0; i < n; i++ {
		a.machine[i] = -1
		a.start[i] = math.NaN()
	}

	a.flows = resliceZero(a.flows, n)
	a.busy = resliceZero(a.busy, m)
	a.attempts = resliceZero(a.attempts, n)
	a.dropped = resliceZero(a.dropped, n)
	a.parkedBits = resliceZero(a.parkedBits, n)

	a.live = grow(a.live, m)
	for j := 0; j < m; j++ {
		a.live[j] = true
	}
	a.down = 0
	a.curStart = resliceZero(a.curStart, n)
	a.curEnd = resliceZero(a.curEnd, n)
	a.busyAdd = resliceZero(a.busyAdd, n)
	a.seq = grow(a.seq, n) // written by enqueue/retime before it is read
	a.timed = 0
	a.fq.reset(n, m)
	a.heads.reset(m)
	a.headFloor, a.shedding = core.Time(math.Inf(1)), false
	a.parked = a.parked[:0]
	a.wake = a.wake[:0]

	a.events.Clear()

	if cap(a.liveBuf) < m {
		a.liveBuf = make(core.ProcSet, 0, m)
	}
}

// grow reslices buf to n elements, reallocating only when its capacity is
// short. Contents are unspecified; callers overwrite every element (or use
// resliceZero).
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resliceZero reslices buf to n zeroed elements without reallocating when
// capacity allows.
func resliceZero[T any](buf []T, n int) []T {
	buf = grow(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// fifoQueues is the per-server FIFO freelist: every task sits in at most one
// server queue at a time, so a single task-indexed successor array plus
// per-server head/tail cursors represent all m queues with zero per-operation
// allocation — replacing the [][]int slices whose append/shrink churn
// dominated the robustness paths' allocation counts.
type fifoQueues struct {
	next []int // task id → next task in its queue (−1 = last)
	head []int // server → first queued task (−1 = empty)
	tail []int // server → last queued task (−1 = empty)
}

// reset prepares the freelist for n tasks on m servers. next needs no
// clearing: a task's link is written by push before it can be read.
func (f *fifoQueues) reset(n, m int) {
	f.next = grow(f.next, n)
	f.head = grow(f.head, m)
	f.tail = grow(f.tail, m)
	for j := 0; j < m; j++ {
		f.head[j] = -1
		f.tail[j] = -1
	}
}

// push appends task id to server j's queue.
func (f *fifoQueues) push(j, id int) {
	f.next[id] = -1
	if t := f.tail[j]; t >= 0 {
		f.next[t] = id
	} else {
		f.head[j] = id
	}
	f.tail[j] = id
}

// popHead removes and returns server j's queue head (the queue must be
// non-empty).
func (f *fifoQueues) popHead(j int) int {
	id := f.head[j]
	h := f.next[id]
	f.head[j] = h
	if h < 0 {
		f.tail[j] = -1
	}
	return id
}

// remove unlinks task id from anywhere in server j's queue, preserving the
// order of the rest. A task not actually queued on j is a no-op.
func (f *fifoQueues) remove(j, id int) {
	prev := f.head[j]
	if prev == id {
		f.popHead(j)
		return
	}
	for prev >= 0 && f.next[prev] != id {
		prev = f.next[prev]
	}
	if prev < 0 {
		return
	}
	f.next[prev] = f.next[id]
	if f.tail[j] == id {
		f.tail[j] = prev
	}
}

// takeAll empties server j's queue and returns its former head; the caller
// walks the chain via next. Capture next[id] before re-dispatching id — a
// dispatch relinks it.
func (f *fifoQueues) takeAll(j int) int {
	h := f.head[j]
	f.head[j] = -1
	f.tail[j] = -1
	return h
}

// headIndex orders the engine's pending completions. Every attempt waits in
// one server's FIFO and a server runs its queue back to back, so a server's
// next completion is its queue head: an indexed min-heap over the non-empty
// queues, keyed on the head's (end, seq), yields the cluster's next
// completion in O(log m), and an aborted attempt simply leaves its queue.
// seq is the order in which attempts were last timed (Arena.enqueue,
// Arena.retime): within a queue ends never decrease and seqs increase from
// head to tail, and across servers simultaneous completions settle in
// timing order.
type headIndex struct {
	heap []headKey
	pos  []int // server → its index in heap (−1 = queue empty)
}

type headKey struct {
	end    core.Time
	seq    uint64
	server int
}

func (k headKey) less(o headKey) bool {
	if k.end != o.end {
		return k.end < o.end
	}
	return k.seq < o.seq
}

func (h *headIndex) reset(m int) {
	h.heap = grow(h.heap, m)[:0]
	h.pos = grow(h.pos, m)
	for j := range h.pos {
		h.pos[j] = -1
	}
}

// min returns the server with the earliest head completion and that instant;
// ok is false when every queue is empty.
func (h *headIndex) min() (server int, end core.Time, ok bool) {
	if len(h.heap) == 0 {
		return -1, 0, false
	}
	return h.heap[0].server, h.heap[0].end, true
}

// set keys server j on its head's completion, inserting j if absent.
func (h *headIndex) set(j int, end core.Time, seq uint64) {
	k := headKey{end: end, seq: seq, server: j}
	i := h.pos[j]
	if i < 0 {
		i = len(h.heap)
		h.heap = append(h.heap, k)
	} else {
		h.heap[i] = k
	}
	h.fix(i)
}

// remove drops server j (its queue emptied); an absent server is a no-op.
func (h *headIndex) remove(j int) {
	i := h.pos[j]
	if i < 0 {
		return
	}
	h.pos[j] = -1
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	if i < last {
		h.heap[i] = moved
		h.fix(i)
	}
}

// fix restores the heap order around index i and records every moved
// server's position.
func (h *headIndex) fix(i int) {
	k := h.heap[i]
	for i > 0 { // sift up
		parent := (i - 1) / 2
		if !k.less(h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i].server] = i
		i = parent
	}
	for n := len(h.heap); ; { // sift down
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.heap[r].less(h.heap[c]) {
			c = r
		}
		if !h.heap[c].less(k) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i].server] = i
		i = c
	}
	h.heap[i] = k
	h.pos[k.server] = i
}

// rekey re-reads server j's queue head into the head index, dropping j when
// its queue is empty. Every change to a queue's head (or to the head's
// timing) calls it.
func (a *Arena) rekey(j int) {
	if h := a.fq.head[j]; h >= 0 {
		a.heads.set(j, a.curEnd[h], a.seq[h])
		a.lowerFloor(h)
	} else {
		a.heads.remove(j)
	}
}

// lowerFloor folds the release of attempt id's task (id, or its hedge copy
// n + id), which just became a queue head, into headFloor.
func (a *Arena) lowerFloor(id int) {
	if !a.shedding {
		return
	}
	if n := len(a.releases); id >= n {
		id -= n
	}
	if r := a.releases[id]; r < a.headFloor {
		a.headFloor = r
	}
}

// popHead removes server j's queue head — its completing attempt — and
// re-keys j on the next one: the completion counterpart of enqueue.
func (a *Arena) popHead(j int) {
	a.st.QueueLen[j]--
	a.fq.popHead(j)
	a.rekey(j)
}

// enqueue appends attempt id (a task, or its copy n + id) to server j's
// FIFO, timed [start, end) with busy time credited to j: the one queue entry
// path, shared by dispatch and copy issue.
func (a *Arena) enqueue(j, id int, start, end, busy core.Time) {
	a.st.Completion[j] = end
	a.st.QueueLen[j]++
	a.fq.push(j, id)
	a.curStart[id], a.curEnd[id] = start, end
	a.busyAdd[id] = busy
	a.metrics.Busy[j] += busy
	a.timed++
	a.seq[id] = a.timed
	if a.fq.head[j] == id {
		a.heads.set(j, end, a.timed)
		a.lowerFloor(id)
	}
}
