// Package eventq provides the priority queues used across the simulator and
// schedulers: a generic min-heap ordered by time with FIFO tie-breaking, and
// an indexed min-heap over machine completion times supporting decrease/
// increase-key.
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

// MachineHeap is an indexed min-heap over per-machine keys (typically
// completion times). It supports O(log m) updates of any machine's key and
// O(1) access to the machine with the smallest key, breaking ties by the
// smallest machine index (the paper's EFT-Min convention).
type MachineHeap struct {
	key  []float64 // key per machine index
	heap []int     // machine indices, heap-ordered
	pos  []int     // position of each machine in heap
}

// NewMachineHeap builds a heap over machines 0..m-1, all with key 0.
func NewMachineHeap(m int) *MachineHeap {
	h := &MachineHeap{
		key:  make([]float64, m),
		heap: make([]int, m),
		pos:  make([]int, m),
	}
	for j := 0; j < m; j++ {
		h.heap[j] = j
		h.pos[j] = j
	}
	return h
}

// Len reports the number of machines.
func (h *MachineHeap) Len() int { return len(h.heap) }

// Key returns machine j's current key.
func (h *MachineHeap) Key(j int) float64 { return h.key[j] }

// MinMachine returns the machine with the smallest key (ties broken by
// smallest index) and that key.
func (h *MachineHeap) MinMachine() (int, float64) {
	j := h.heap[0]
	return j, h.key[j]
}

// Update sets machine j's key and restores the heap order.
func (h *MachineHeap) Update(j int, key float64) {
	h.key[j] = key
	if !h.down(h.pos[j]) {
		h.up(h.pos[j])
	}
}

func (h *MachineHeap) less(a, b int) bool {
	ja, jb := h.heap[a], h.heap[b]
	if h.key[ja] != h.key[jb] {
		return h.key[ja] < h.key[jb]
	}
	return ja < jb
}

func (h *MachineHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = a
	h.pos[h.heap[b]] = b
}

func (h *MachineHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *MachineHeap) down(i int) bool {
	moved := false
	n := len(h.heap)
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
			return moved
		}
		h.swap(i, smallest)
		i = smallest
		moved = true
	}
}
