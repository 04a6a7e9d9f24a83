package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdersByTime(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	var got []string
	for q.Len() > 0 {
		_, p := q.Pop()
		got = append(got, p)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v", got)
	}
}

func TestQueueFIFOAmongTies(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 10; i++ {
		_, p := q.Pop()
		if p != i {
			t.Fatalf("tie order broken: got %d at position %d", p, i)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue[int]
	q.Push(2, 20)
	q.Push(1, 10)
	tm, p := q.Peek()
	if tm != 1 || p != 10 {
		t.Fatalf("Peek = %v %v", tm, p)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek should not remove")
	}
}

func TestQueueHeapProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		n := 1 + rng.Intn(200)
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(rng.Intn(20)) // many ties
			q.Push(times[i], i)
		}
		sort.Float64s(times)
		prevTime := -1.0
		prevSeqAtTime := -1
		for i := 0; q.Len() > 0; i++ {
			tm, p := q.Pop()
			if tm != times[i] {
				return false
			}
			if tm == prevTime {
				if p < prevSeqAtTime { // FIFO among equal times
					return false
				}
			}
			prevTime, prevSeqAtTime = tm, p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueReserve(t *testing.T) {
	var q Queue[int]
	q.Push(2, 2)
	q.Push(1, 1)
	q.Reserve(64)
	// Reserve preserves contents...
	if tm, p := q.Pop(); tm != 1 || p != 1 {
		t.Fatalf("Pop after Reserve = %v %v", tm, p)
	}
	// ...and a smaller reservation is a no-op.
	q.Reserve(1)
	if tm, p := q.Pop(); tm != 2 || p != 2 {
		t.Fatalf("Pop after no-op Reserve = %v %v", tm, p)
	}
}

// TestQueueAllocFree pins the hand-rolled sift operations: within reserved
// capacity a Push/Pop cycle performs no heap allocation (container/heap's
// interface-typed Push/Pop boxed every item).
func TestQueueAllocFree(t *testing.T) {
	var q Queue[int]
	q.Reserve(128)
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.Push(float64(100-i), i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("Push/Pop cycle allocates %v times within reserved capacity", avg)
	}
}

// TestQueueClearEqualsFresh: a cleared queue must behave exactly like a new
// one — in particular the tie-break sequence number restarts, so a run
// through a recycled queue (sim's run arena) pops FIFO-equal ties in the
// same order a fresh run would. It must also drop references to popped
// payloads (zeroed backing), and keep its capacity.
func TestQueueClearEqualsFresh(t *testing.T) {
	var fresh, reused Queue[int]
	for i := 0; i < 20; i++ {
		reused.Push(float64(20-i), i)
	}
	reused.Pop()
	reused.Pop()
	reused.Clear()
	if reused.Len() != 0 {
		t.Fatalf("cleared queue has %d elements", reused.Len())
	}

	feed := func(q *Queue[int]) []int {
		for i := 0; i < 10; i++ {
			q.Push(5, i) // all ties: order is purely the seq counter
		}
		var out []int
		for q.Len() > 0 {
			_, p := q.Pop()
			out = append(out, p)
		}
		return out
	}
	got, want := feed(&reused), feed(&fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order after Clear = %v, fresh = %v", got, want)
		}
	}
}

// TestQueueClaimMatchesPushAtClaimTime drives random pushes, claims and pops
// with tie-heavy times, and enqueues every claim later with PushClaimed, at a
// random moment before its instant is reached. The pop order must equal a
// reference queue's that pushed every event at claim time.
func TestQueueClaimMatchesPushAtClaimTime(t *testing.T) {
	type claim struct {
		at  float64
		id  int
		seq uint64
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q, ref Queue[int]
		var pending []claim
		id, now, claims := 0, 0.0, 0
		pop := func() bool {
			rt, rp := ref.Pop()
			kept := pending[:0]
			for _, c := range pending {
				if c.at <= rt {
					q.PushClaimed(c.at, c.id, c.seq)
				} else {
					kept = append(kept, c)
				}
			}
			pending = kept
			qt, qp := q.Pop()
			now = rt
			return qt == rt && qp == rp
		}
		for step := 0; step < 300; step++ {
			at := now + float64(rng.Intn(5)) // many ties, some at the current instant
			switch r := rng.Intn(10); {
			case r < 3:
				q.Push(at, id)
				ref.Push(at, id)
				id++
			case r < 6:
				pending = append(pending, claim{at: at, id: id, seq: q.Claim()})
				ref.Push(at, id)
				id++
				claims++
			case r < 8:
				if len(pending) > 0 {
					k := rng.Intn(len(pending))
					c := pending[k]
					q.PushClaimed(c.at, c.id, c.seq)
					pending = append(pending[:k], pending[k+1:]...)
				}
			default:
				if ref.Len() > 0 && !pop() {
					return false
				}
			}
		}
		for ref.Len() > 0 {
			if !pop() {
				return false
			}
		}
		return q.Len() == 0 && len(pending) == 0 && claims > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
