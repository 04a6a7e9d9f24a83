package obs

import (
	"reflect"
	"testing"

	"flowsched/internal/core"
)

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := NewSampler(-2, 1); err == nil {
		t.Error("m=-2 accepted")
	}
	for _, dt := range []core.Time{0, -1, core.Time(nan())} {
		if _, err := NewSampler(2, dt); err == nil {
			t.Errorf("dt=%v accepted", dt)
		}
	}
	s, err := NewSampler(3, 0.5)
	if err != nil || s.Interval() != 0.5 {
		t.Fatalf("NewSampler(3, 0.5) = %v, %v", s, err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestSamplerHandRun drives the sampler with the eager completion reporting
// of the fault-free simulator and checks every boundary sample: two servers,
// task 0 on M1 over [0,2), task 1 on M2 over [1,3), dt = 1.
func TestSamplerHandRun(t *testing.T) {
	s, err := NewSampler(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 2)
	h.OnComplete(0, 0, 0, 2, 2) // eager: end is in the future
	h.OnArrival(1, 1)
	h.OnDispatch(1, 1, 1, 1, 3)
	h.OnComplete(1, 1, 1, 2, 3)
	h.OnDone(3)

	want := []Sample{
		{Time: 0, Queue: []int{1, 0}, Backlog: 1, MaxAge: 0, Busy: 1},
		{Time: 1, Queue: []int{1, 1}, Backlog: 2, MaxAge: 1, Busy: 2},
		{Time: 2, Queue: []int{0, 1}, Backlog: 1, MaxAge: 1, Busy: 1},
		{Time: 3, Queue: []int{0, 0}, Backlog: 0, MaxAge: 0, Busy: 0},
	}
	got := s.Samples()
	if len(got) != len(want) {
		t.Fatalf("got %d samples %v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Time != w.Time || g.Backlog != w.Backlog || g.MaxAge != w.MaxAge || g.Busy != w.Busy {
			t.Errorf("sample %d = %+v, want %+v", i, g, w)
		}
		for j := range w.Queue {
			if g.Queue[j] != w.Queue[j] {
				t.Errorf("sample %d queue = %v, want %v", i, g.Queue, w.Queue)
			}
		}
	}
	if pb, at := s.PeakBacklog(); pb != 2 || at != 1 {
		t.Errorf("PeakBacklog = %d@%v, want 2@1", pb, at)
	}
	if pa, at := s.PeakMaxAge(); pa != 1 || at != 1 {
		t.Errorf("PeakMaxAge = %v@%v, want 1@1", pa, at)
	}
	if u := got[1].Utilization(); u != 1 {
		t.Errorf("utilization at t=1 = %v, want 1", u)
	}
}

// TestSamplerCoarseInterval: dt greater than the makespan still yields the
// t = 0 sample (and only it).
func TestSamplerCoarseInterval(t *testing.T) {
	s, err := NewSampler(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 1)
	h.OnComplete(0, 0, 0, 1, 1)
	h.OnDone(1)
	got := s.Samples()
	if len(got) != 1 || got[0].Time != 0 || got[0].Backlog != 1 || got[0].Busy != 1 {
		t.Fatalf("samples = %+v, want single t=0 sample with backlog 1", got)
	}
	// OnDone must be idempotent — the facade may call it defensively.
	h.OnDone(1)
	if len(s.Samples()) != 1 {
		t.Errorf("second OnDone appended samples: %+v", s.Samples())
	}
}

// TestSamplerFailover: a crash zeroes the server's queue; the lost request
// re-enters via retry and the backlog watermark tracks it throughout.
func TestSamplerFailover(t *testing.T) {
	s, err := NewSampler(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 5)
	// Faulty runs report completions only when final: none here. Server 0
	// crashes at t = 2 losing the request, which retries onto server 1.
	h.OnFailover(0, 2, 1)
	h.OnRetry(0, 1, 2)
	h.OnDispatch(0, 1, 2, 2, 7)
	h.OnComplete(0, 1, 0, 5, 7)
	h.OnDone(7)

	got := s.Samples()
	// t=0,1: queued on M1. t=2..6: queued on M2. t=7: done.
	if len(got) != 8 {
		t.Fatalf("got %d samples: %+v", len(got), got)
	}
	for _, g := range got {
		switch {
		case g.Time < 2:
			if g.Queue[0] != 1 || g.Queue[1] != 0 || g.Backlog != 1 {
				t.Errorf("pre-crash sample %+v", g)
			}
		case g.Time < 7:
			if g.Queue[0] != 0 || g.Queue[1] != 1 || g.Backlog != 1 {
				t.Errorf("post-failover sample %+v", g)
			}
		default:
			if g.Backlog != 0 || g.Busy != 0 {
				t.Errorf("final sample %+v", g)
			}
		}
	}
	// The watermark keeps aging across the failover: at t=6 the request has
	// been in flight since t=0.
	if got[6].MaxAge != 6 {
		t.Errorf("MaxAge at t=6 = %v, want 6", got[6].MaxAge)
	}
}

// TestSamplerDrop: a dropped request leaves the backlog without a completion.
func TestSamplerDrop(t *testing.T) {
	s, err := NewSampler(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 4)
	h.OnFailover(0, 1, 1)
	h.OnDrop(0, 0, 1)
	h.OnDone(2)
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("got %d samples: %+v", len(got), got)
	}
	if got[1].Backlog != 0 || got[1].MaxAge != 0 {
		t.Errorf("post-drop sample %+v, want empty backlog", got[1])
	}
}

// TestSamplerQueueCountsEachTaskOnce feeds the sampler a hand-written stream
// in which tasks leave their queues every way the engine reports: a drop
// after a failover (the failover already emptied the queue), a completion
// by a hedge copy (the task is counted on its primary's server, not the
// copy's), a shed from a queue and a handoff that parks the task until a
// later dispatch.
func TestSamplerQueueCountsEachTaskOnce(t *testing.T) {
	s, err := NewSampler(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 10)
	h.OnArrival(1, 0)
	h.OnDispatch(1, 0, 0, 10, 20)
	h.OnFailover(0, 1, 2)
	h.OnArrival(2, 1)
	h.OnDispatch(2, 0, 1, 1, 5)
	h.OnDrop(0, 0, 2)
	h.OnDispatch(1, 1, 2, 2, 8)
	h.OnHedge(1, 1, 2, 3, 3, 4)
	h.OnComplete(1, 2, 0, 10, 4)
	h.OnHedgeCancel(1, 1, 4, true)
	h.OnHedgeWin(1, 2, true, 4)
	h.OnArrival(3, 4)
	h.OnDispatch(3, 2, 4, 4, 9)
	h.OnComplete(2, 0, 1, 4, 5)
	h.OnArrival(4, 5)
	h.OnDispatch(4, 1, 5, 8, 9)
	h.OnShed(4, 1, 5, 6, "watermark")
	h.OnHandoff(3, 2, 6)
	h.OnDispatch(3, 1, 7, 7, 9)
	h.OnComplete(3, 1, 4, 5, 9)
	h.OnDone(9)
	want := []struct {
		queue   []int
		backlog int
	}{
		{[]int{2, 0, 0}, 2}, {[]int{1, 0, 0}, 3}, {[]int{1, 1, 0}, 2}, {[]int{1, 1, 0}, 2},
		{[]int{1, 0, 1}, 2}, {[]int{0, 1, 1}, 2}, {[]int{0, 0, 0}, 1}, {[]int{0, 1, 0}, 1},
		{[]int{0, 1, 0}, 1}, {[]int{0, 0, 0}, 0},
	}
	got := s.Samples()
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if g := got[i]; !reflect.DeepEqual(g.Queue, w.queue) || g.Backlog != w.backlog {
			t.Errorf("t=%v: queues %v backlog %d, want %v and %d", g.Time, g.Queue, g.Backlog, w.queue, w.backlog)
		}
	}
}

// TestSamplerIgnoresOutOfOrderArrivals: the sampler indexes tasks by id, so
// it applies only the arrival of the next id. A repeated or skipped id, and
// the later events of a task whose arrival was ignored, leave the samples
// as they would be without them.
func TestSamplerIgnoresOutOfOrderArrivals(t *testing.T) {
	s, err := NewSampler(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hooks(s)
	h.OnArrival(0, 0)
	h.OnDispatch(0, 0, 0, 0, 2)
	h.OnArrival(0, 0) // repeated
	h.OnArrival(2, 0) // skips id 1
	h.OnDispatch(2, 1, 0, 0, 3)
	h.OnComplete(0, 0, 0, 2, 2)
	h.OnComplete(2, 1, 0, 3, 3)
	h.OnDone(3)
	want := []Sample{
		{Time: 0, Queue: []int{1, 0}, Backlog: 1, Busy: 1, Members: 2},
		{Time: 1, Queue: []int{1, 0}, Backlog: 1, MaxAge: 1, Busy: 1, Members: 2},
		{Time: 2, Queue: []int{0, 0}, Members: 2},
		{Time: 3, Queue: []int{0, 0}, Members: 2},
	}
	if got := s.Samples(); !reflect.DeepEqual(got, want) {
		t.Errorf("samples = %+v, want %+v", got, want)
	}
}
