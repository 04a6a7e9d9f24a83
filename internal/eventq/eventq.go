// Package eventq provides the priority queue used across the simulator and
// schedulers: a generic min-heap ordered by time with FIFO tie-breaking.
package eventq

// Item is an element of Queue: a payload scheduled at a time instant.
type Item[T any] struct {
	Time    float64
	Payload T
	seq     uint64
}

// itemHeap implements the sift operations directly instead of going through
// container/heap, whose interface-typed Push/Pop box every Item — two heap
// allocations per simulated event (see BenchmarkSimRunEFT in benchreg).
type itemHeap[T any] []Item[T]

func (h itemHeap[T]) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}

func (h itemHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h itemHeap[T]) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Queue is a time-ordered min-heap of events. Events with equal times are
// dequeued in insertion (FIFO) order, which makes discrete-event simulations
// deterministic. The zero value is ready to use.
type Queue[T any] struct {
	h   itemHeap[T]
	seq uint64
}

// Len reports the number of queued events.
func (q *Queue[T]) Len() int { return len(q.h) }

// Reserve grows the queue's backing array to hold at least n events without
// further allocation. Simulation hot loops call it once up front so that
// steady-state Push/Pop cycles stay allocation-free.
func (q *Queue[T]) Reserve(n int) {
	if cap(q.h) >= n {
		return
	}
	h := make(itemHeap[T], len(q.h), n)
	copy(h, q.h)
	q.h = h
}

// Push enqueues payload at the given time. Within reserved capacity it is
// allocation-free.
func (q *Queue[T]) Push(time float64, payload T) {
	q.PushClaimed(time, payload, q.Claim())
}

// Claim takes the FIFO position a Push would take now, without enqueuing
// anything: it advances the tie-break sequence exactly as Push does and
// returns the position (always ≥ 1). A simulation that may never need an
// event claims its position up front and enqueues it later with
// PushClaimed, so that pop order, ties included, is the same as if it had
// been pushed at claim time.
func (q *Queue[T]) Claim() uint64 {
	q.seq++
	return q.seq
}

// PushClaimed enqueues payload at the given time in the FIFO position seq,
// which Claim returned. Among events of equal time it pops as if it had been
// pushed when seq was claimed; the caller must push it before any event it
// would precede has been popped.
func (q *Queue[T]) PushClaimed(time float64, payload T, seq uint64) {
	q.h = append(q.h, Item[T]{Time: time, Payload: payload, seq: seq})
	q.h.up(len(q.h) - 1)
}

// Pop dequeues the earliest event. It is allocation-free. It panics on an
// empty queue; check Len first.
func (q *Queue[T]) Pop() (float64, T) {
	it := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	var zero Item[T]
	q.h[n] = zero // release payload references for GC
	q.h = q.h[:n]
	if n > 0 {
		q.h.down(0)
	}
	return it.Time, it.Payload
}

// Peek returns the earliest event without removing it. It panics on an empty
// queue.
func (q *Queue[T]) Peek() (float64, T) {
	return q.h[0].Time, q.h[0].Payload
}

// Clear empties the queue while keeping its backing array, and rewinds the
// FIFO tie-break sequence to the zero value's. A cleared queue behaves
// exactly like a fresh one (same tie-break order for the same pushes), which
// is what lets sim's run arena recycle event queues across runs without
// perturbing determinism.
func (q *Queue[T]) Clear() {
	var zero Item[T]
	for i := range q.h {
		q.h[i] = zero // release payload references for GC
	}
	q.h = q.h[:0]
	q.seq = 0
}
