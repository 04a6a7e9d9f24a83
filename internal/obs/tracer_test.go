package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flowsched/internal/core"
)

func TestTracerSpanAssembly(t *testing.T) {
	tr := NewTracer(KeepAll())
	h := hooks(tr)

	// Task 0: clean single-attempt completion.
	h.OnArrival(0, 1)
	h.OnDispatch(0, 2, 1, 3, 5)
	h.OnComplete(0, 2, 1, 2, 5)

	// Task 1: crash-aborted attempt, retry, second attempt completes.
	h.OnArrival(1, 2)
	h.OnDispatch(1, 0, 2, 2, 6)
	h.OnFailover(0, 4, 1)
	h.OnRetry(1, 1, 4)
	h.OnDispatch(1, 1, 4, 7, 11)
	h.OnComplete(1, 1, 2, 4, 11)

	// Task 2: crash then drop.
	h.OnArrival(2, 3)
	h.OnDispatch(2, 0, 3, 8, 9)
	h.OnDrop(2, 3, 10)

	h.OnDone(11)
	if !tr.Done() || tr.Makespan() != 11 {
		t.Fatalf("Done=%v Makespan=%v", tr.Done(), tr.Makespan())
	}

	t0 := tr.Trace(0)
	if t0 == nil || t0.State != TraceCompleted || t0.Flow != 4 || t0.EndAt != 5 {
		t.Fatalf("task 0 trace = %+v", t0)
	}
	if len(t0.Attempts) != 1 || t0.Attempts[0].Outcome != AttemptCompleted ||
		t0.Attempts[0].Server != 2 || t0.Attempts[0].Start != 3 || t0.Attempts[0].Retimed {
		t.Fatalf("task 0 attempts = %+v", t0.Attempts)
	}
	if w := t0.QueueWait(); w != 2 {
		t.Fatalf("task 0 queue wait = %v", w)
	}

	t1 := tr.Trace(1)
	if t1 == nil || t1.State != TraceCompleted || t1.Retries != 1 || len(t1.Attempts) != 2 {
		t.Fatalf("task 1 trace = %+v", t1)
	}
	if a := t1.Attempts[0]; a.Outcome != AttemptCrashed || a.AbortAt != 4 || a.Server != 0 {
		t.Fatalf("task 1 attempt 0 = %+v", a)
	}
	if a := t1.Attempts[1]; a.Outcome != AttemptCompleted || a.End != 11 {
		t.Fatalf("task 1 attempt 1 = %+v", a)
	}

	t2 := tr.Trace(2)
	if t2 == nil || t2.State != TraceDropped || t2.Flow != 7 || len(t2.Attempts) != 1 {
		t.Fatalf("task 2 trace = %+v", t2)
	}
	if a := t2.Attempts[0]; a.Outcome != AttemptCrashed || a.AbortAt != 10 {
		t.Fatalf("task 2 attempt = %+v", a)
	}
}

func TestTracerRetimeReconciliation(t *testing.T) {
	tr := NewTracer(KeepAll())
	h := hooks(tr)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 1, 0, 5, 8) // forecast [5, 8)
	// A watermark shed ahead in the queue silently re-timed the attempt; the
	// completion arrives with a different end.
	h.OnComplete(0, 1, 0, 3, 7)
	a := tr.Trace(0).Attempts[0]
	if !a.Retimed {
		t.Fatal("forecast-end mismatch not flagged Retimed")
	}
	if a.End != 7 || a.Start != 4 {
		t.Fatalf("reconciled interval [%v, %v), want [4, 7)", a.Start, a.End)
	}

	// Matching forecast stays untouched.
	h.OnArrival(1, 0)
	h.OnDispatch(1, 0, 0, 2, 6)
	h.OnComplete(1, 0, 0, 4, 6)
	if a := tr.Trace(1).Attempts[0]; a.Retimed || a.Start != 2 {
		t.Fatalf("clean completion mangled: %+v", a)
	}
}

func TestTracerOverloadAndMembershipHooks(t *testing.T) {
	tr := NewTracer(KeepAll())
	h := hooks(tr)

	// Rejection on arrival: no attempts, reason recorded.
	h.OnArrival(0, 1)
	h.OnReject(0, 1, "queue-bound")
	t0 := tr.Trace(0)
	if t0.State != TraceRejected || t0.Reason != "queue-bound" || len(t0.Attempts) != 0 || t0.Flow != 0 {
		t.Fatalf("rejected trace = %+v", t0)
	}

	// Watermark shed closes the open attempt; deadline shed (no dispatch)
	// leaves none.
	h.OnArrival(1, 0)
	h.OnDispatch(1, 2, 0, 5, 6)
	h.OnShed(1, 2, 0, 9, "watermark")
	t1 := tr.Trace(1)
	if t1.State != TraceShed || t1.Flow != 9 || t1.Attempts[0].Outcome != AttemptShed ||
		t1.Attempts[0].AbortAt != 9 {
		t.Fatalf("shed trace = %+v", t1)
	}
	h.OnArrival(2, 4)
	h.OnShed(2, 3, 4, 7, "deadline")
	if t2 := tr.Trace(2); t2.State != TraceShed || len(t2.Attempts) != 0 || t2.Flow != 3 {
		t.Fatalf("deadline-shed trace = %+v", t2)
	}

	// Handoff closes the attempt as handed-off; the re-dispatch opens a new
	// one and the completion closes it.
	h.OnArrival(3, 0)
	h.OnDispatch(3, 0, 0, 1, 4)
	h.OnScaleDown(0, 2, 3, 1)
	h.OnHandoff(3, 0, 2)
	h.OnDispatch(3, 1, 2, 2, 5)
	h.OnComplete(3, 1, 0, 3, 5)
	t3 := tr.Trace(3)
	if len(t3.Attempts) != 2 || t3.Attempts[0].Outcome != AttemptHandedOff ||
		t3.Attempts[0].AbortAt != 2 || t3.Attempts[1].Outcome != AttemptCompleted {
		t.Fatalf("handoff trace = %+v", t3.Attempts)
	}
	if t3.Retries != 0 {
		t.Fatalf("handoff counted as retry: %+v", t3)
	}
}

// TestTracerKeepWorstExact pins the KeepWorst contract: after the run, the
// retained set is exactly the k tasks with the largest flows under the
// (rank, task) total order, no matter the resolution order.
func TestTracerKeepWorstExact(t *testing.T) {
	const n, k = 200, 7
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tr := NewTracer(KeepWorst(k))
		h := hooks(tr)
		flows := make([]float64, n)
		order := rng.Perm(n)
		for _, id := range order {
			// Coarse quantization forces rank ties so the task-id tiebreak is
			// exercised, not just the float order.
			flow := float64(rng.Intn(12))
			flows[id] = flow
			h.OnArrival(id, 0)
			h.OnDispatch(id, 0, 0, 0, core.Time(flow))
			h.OnComplete(id, 0, 0, 1, core.Time(flow))
		}
		h.OnDone(100)

		// Oracle: sort all tasks by (flow desc, id asc), take the first k.
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		sort.Slice(ids, func(a, b int) bool {
			if flows[ids[a]] != flows[ids[b]] {
				return flows[ids[a]] > flows[ids[b]]
			}
			return ids[a] < ids[b]
		})
		want := ids[:k]

		got := tr.Worst(k)
		if len(got) != k {
			t.Fatalf("trial %d: retained %d traces, want %d", trial, len(got), k)
		}
		for i, tr := range got {
			if tr.Task != want[i] {
				t.Fatalf("trial %d: worst[%d] = T%d (flow %v), want T%d (flow %v)",
					trial, i, tr.Task, tr.Flow, want[i], flows[want[i]])
			}
		}
		// Traces() and Trace() agree with the heap contents.
		if len(tr.Traces()) != k {
			t.Fatalf("trial %d: Traces() returned %d, want %d", trial, len(tr.Traces()), k)
		}
		for _, id := range want {
			if tr.Trace(id) == nil {
				t.Fatalf("trial %d: retained task %d not addressable", trial, id)
			}
		}
	}
}

func TestTracerKeepWorstUnfinishedRanksWorst(t *testing.T) {
	tr := NewTracer(KeepWorst(2))
	h := hooks(tr)
	for id := 0; id < 5; id++ {
		h.OnArrival(id, 0)
		h.OnDispatch(id, 0, 0, 0, core.Time(100+id))
		h.OnComplete(id, 0, 0, 1, core.Time(100+id))
	}
	h.OnArrival(9, 50) // never resolves
	h.OnDone(200)

	worst := tr.Worst(2)
	if len(worst) != 2 || worst[0].Task != 9 || worst[0].State != TraceUnfinished {
		t.Fatalf("worst = %+v", worst)
	}
	if worst[1].Task != 4 { // largest finite flow
		t.Fatalf("worst[1] = T%d, want T4", worst[1].Task)
	}
	if !math.IsInf(worst[0].rank(), 1) {
		t.Fatalf("unfinished rank = %v, want +Inf", worst[0].rank())
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(KeepAll())
	h := hooks(tr)
	h.OnArrival(0, 1)
	h.OnDispatch(0, 2, 1, 3, 5)
	h.OnComplete(0, 2, 1, 2, 5)
	h.OnArrival(1, 2) // unfinished: NaN instants must encode as null
	h.OnDone(5)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Makespan *float64 `json:"makespan"`
		Tasks    []struct {
			Task  int      `json:"task"`
			State string   `json:"state"`
			EndAt *float64 `json:"end_at"`
			Flow  *float64 `json:"flow"`
			Att   []struct {
				Server  int      `json:"server"`
				Outcome string   `json:"outcome"`
				AbortAt *float64 `json:"abort_at"`
			} `json:"attempts"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.Makespan == nil || *doc.Makespan != 5 || len(doc.Tasks) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Tasks[0].State != "completed" || *doc.Tasks[0].Flow != 4 ||
		doc.Tasks[0].Att[0].Outcome != "completed" || doc.Tasks[0].Att[0].AbortAt != nil {
		t.Fatalf("task 0 wire form = %+v", doc.Tasks[0])
	}
	if doc.Tasks[1].State != "unfinished" || doc.Tasks[1].EndAt != nil || doc.Tasks[1].Flow != nil {
		t.Fatalf("unfinished wire form = %+v", doc.Tasks[1])
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatalf("NaN leaked into trace JSON:\n%s", buf.String())
	}
}

func TestTracerHedgeSiblingSpans(t *testing.T) {
	tr := NewTracer(KeepAll())
	h := hooks(tr)

	// Task 0: hedge issued, the copy wins, the primary is hedge-cancelled.
	h.OnArrival(0, 0)
	h.OnDispatch(0, 1, 0, 5, 15) // slow primary
	h.OnHedge(0, 1, 2, 3, 4, 7)  // sibling copy on server 2
	h.OnHedgeWin(0, 2, true, 7)
	h.OnComplete(0, 2, 0, 3, 7)
	h.OnHedgeCancel(0, 1, 7, true)

	t0 := tr.Trace(0)
	if t0.State != TraceCompleted || len(t0.Attempts) != 2 {
		t.Fatalf("task 0 trace = %+v", t0)
	}
	pri, cp := t0.Attempts[0], t0.Attempts[1]
	if pri.Hedge || pri.Outcome != AttemptHedgeCancelled || pri.AbortAt != 7 {
		t.Fatalf("primary span = %+v", pri)
	}
	if !cp.Hedge || cp.Outcome != AttemptCompleted || cp.Server != 2 || cp.End != 7 {
		t.Fatalf("copy span = %+v", cp)
	}

	// Task 1: hedge issued, the primary wins, the copy is hedge-cancelled
	// before service — the cancellation must close the copy span, not the
	// pending primary.
	h.OnArrival(1, 0)
	h.OnDispatch(1, 0, 0, 0, 4)
	h.OnHedge(1, 0, 3, 2, 6, 10)
	h.OnHedgeWin(1, 0, false, 4)
	h.OnComplete(1, 0, 0, 4, 4)
	h.OnHedgeCancel(1, 3, 4, false)

	t1 := tr.Trace(1)
	if len(t1.Attempts) != 2 {
		t.Fatalf("task 1 trace = %+v", t1)
	}
	if a := t1.Attempts[0]; a.Hedge || a.Outcome != AttemptCompleted {
		t.Fatalf("task 1 primary = %+v", a)
	}
	if a := t1.Attempts[1]; !a.Hedge || a.Outcome != AttemptHedgeCancelled || a.AbortAt != 4 {
		t.Fatalf("task 1 copy = %+v", a)
	}

	// Task 2: a crash aborts the primary while a copy is pending — the
	// crash must close the primary span, skipping the hedge sibling.
	h.OnArrival(2, 0)
	h.OnDispatch(2, 0, 0, 0, 9)
	h.OnHedge(2, 0, 1, 2, 5, 14)
	h.OnFailover(0, 3, 1)
	h.OnRetry(2, 1, 3)
	t2 := tr.Trace(2)
	if a := t2.Attempts[0]; a.Hedge || a.Outcome != AttemptCrashed || a.AbortAt != 3 {
		t.Fatalf("task 2 primary after crash = %+v", a)
	}
	if a := t2.Attempts[1]; !a.Hedge || a.Outcome != AttemptPending {
		t.Fatalf("task 2 copy must stay pending across the primary's crash: %+v", a)
	}

	// The outcome names round-trip through the wire form.
	if AttemptHedgeCancelled.String() != "hedge-cancelled" {
		t.Fatalf("outcome string = %q", AttemptHedgeCancelled.String())
	}
}

// TestTracerKeepWorstAllocs pins KeepWorst's recycling: once the heap is
// full and the free list primed, a batch of tasks that retry, complete and
// are rejected or evicted by the heap reuses the discarded traces and their
// Attempts capacity, allocating nothing.
func TestTracerKeepWorstAllocs(t *testing.T) {
	tr := NewTracer(KeepWorst(5))
	h := hooks(tr)
	next := 0
	batch := func() {
		for i := 0; i < 200; i++ {
			id, at := next, core.Time(next)
			next++
			flow := core.Time((id*37)%101) / 10 // rejects and evictions both
			h.OnArrival(id, at)
			h.OnDispatch(id, 0, at, at, at+1)
			h.OnRetry(id, 1, at+0.5)
			h.OnDispatch(id, 1, at+0.5, at+0.5, at+flow)
			h.OnComplete(id, 1, at, 1, at+flow)
		}
	}
	batch() // warm: fills the heap and the free list
	if allocs := testing.AllocsPerRun(10, batch); allocs != 0 {
		t.Fatalf("steady-state KeepWorst batch allocated %.1f times, want 0", allocs)
	}
}

// TestTraceIndexMatchesMap drives the tracer's id-keyed index and a Go map
// through the same random put/get/delete sequences and checks every answer,
// the table's accounting and its size rules after each step. Arrivals take
// consecutive ids (one long probe cluster), completions retire them roughly
// oldest first, and some ids straggle: they stay live for thousands of
// steps, or arrive far ahead of the window at an id that collides with it
// modulo the table size, so probe runs pass over stragglers and over the
// tombstones that completions leave.
func TestTraceIndexMatchesMap(t *testing.T) {
	purges, grows := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newTraceIndex()
		ref := map[int]*TaskTrace{}
		var fifo, seen []int // live ids in arrival order; every id ever stored
		next, window := 0, 50+rng.Intn(400)
		verify := func(step int, op string, id int) {
			t.Helper()
			if got, want := x.get(id), ref[id]; got != want {
				t.Fatalf("seed %d step %d %s(%d): get = %p, map = %p", seed, step, op, id, got, want)
			}
		}
		for step := 0; step < 20000; step++ {
			if step%4000 == 0 {
				window = 20 + rng.Intn(600) // the backlog swings, so the table grows in stages
			}
			size, dead := len(x.slots), x.dead
			var op string
			var id int
			switch r := rng.Intn(100); {
			case r < 45 && len(fifo) < window: // an arrival
				op, id = "put", next
				next++
				if rng.Intn(40) > 0 {
					fifo = append(fifo, id) // a straggler stays off the FIFO
				}
			case r < 48: // far ahead of the window, colliding with it
				op, id = "put", next+(1+rng.Intn(3))*len(x.slots)
			case r < 50 && len(seen) > 0: // a re-arrival replaces the stored trace
				op, id = "put", seen[rng.Intn(len(seen))]
			case r < 85 && len(fifo) > 0: // a completion, oldest first
				op, id = "del", fifo[0]
				fifo = fifo[1:]
			case r < 90 && len(seen) > 0: // any id: live, deleted, or a straggler
				op, id = "del", seen[rng.Intn(len(seen))]
			default:
				op, id = "get", rng.Intn(next+1)-1
			}
			switch op {
			case "put":
				tr := &TaskTrace{Task: id}
				x.put(tr)
				ref[id] = tr
				seen = append(seen, id)
			case "del":
				x.del(id)
				delete(ref, id)
			}
			verify(step, op, id)

			switch {
			case len(x.slots) < size:
				t.Fatalf("seed %d step %d: table shrank from %d to %d slots", seed, step, size, len(x.slots))
			case len(x.slots) > size:
				grows++
				if len(x.slots) != 2*size {
					t.Fatalf("seed %d step %d: table grew from %d to %d slots, want doubling", seed, step, size, len(x.slots))
				}
			case dead > 1 && x.dead == 0: // reusing a tombstone frees one at most
				purges++
			}
			if x.live != len(ref) {
				t.Fatalf("seed %d step %d: index counts %d live, map holds %d", seed, step, x.live, len(ref))
			}
			if 2*x.live > len(x.slots) || 4*(x.live+x.dead) > 3*len(x.slots) {
				t.Fatalf("seed %d step %d: %d live + %d tombstones in %d slots", seed, step, x.live, x.dead, len(x.slots))
			}
			if step%501 == 0 || dead > 1 && x.dead == 0 {
				tombs, stored := 0, 0
				for _, s := range x.slots {
					if s.tr == tombstone {
						tombs++
					}
				}
				x.each(func(tr *TaskTrace) {
					stored++
					if ref[tr.Task] != tr {
						t.Fatalf("seed %d step %d: index holds a stale trace for %d", seed, step, tr.Task)
					}
				})
				if tombs != x.dead || stored != len(ref) {
					t.Fatalf("seed %d step %d: %d tombstones (counted %d), %d traces (map %d)",
						seed, step, tombs, x.dead, stored, len(ref))
				}
				for id := range ref {
					verify(step, "get", id)
				}
			}
		}
	}
	if purges < 50 || grows < 20 {
		t.Fatalf("sequences purged %d times and grew %d times; want many of both", purges, grows)
	}
	t.Logf("%d purges, %d doublings", purges, grows)
}
