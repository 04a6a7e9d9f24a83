package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
)

// span is one timed call into a layer of the program. Times are nanoseconds
// since the recorder started; parent is the index of the enclosing span
// (−1 at top level) and call the benchmark call the span belongs to.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Call   int    `json:"call"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// recorder keeps spans in memory for the traced run. A nil recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	call  int
	alloc *allocMeter
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), alloc: newAllocMeter()}
}

func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	a, _ := r.alloc.read()
	r.spans = append(r.spans, span{Name: name, Layer: layer, Parent: parent, Call: r.call,
		Alloc: a, Start: time.Since(r.t0).Nanoseconds()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.End = time.Since(r.t0).Nanoseconds()
	a, _ := r.alloc.read()
	s.Alloc = a - s.Alloc
	r.open = r.open[:len(r.open)-1]
}

// nextCall starts a new call id; spans opened until the next call belong
// to it.
func (r *recorder) nextCall() {
	if r != nil {
		r.call++
	}
}

// durations returns the durations in ms of spans with one of the given
// names opened at or after span index from.
func (r *recorder) durations(from int, names ...string) []float64 {
	var out []float64
	for _, s := range r.spans[from:] {
		for _, n := range names {
			if s.Name == n {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time in ms of spans opened
// at or after index from: each span's duration minus its children's.
func (r *recorder) selfTimes(from int) map[string]float64 {
	self := make(map[string]float64)
	for i := from; i < len(r.spans); i++ {
		s := r.spans[i]
		d := float64(s.End-s.Start) / 1e6
		self[s.Layer] += d
		if s.Parent >= from {
			self[r.spans[s.Parent].Layer] -= d
		}
	}
	return self
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatSelf(self map[string]float64) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	out := ""
	for _, l := range layers {
		out += fmt.Sprintf(" %s=%.3f", l, self[l])
	}
	return out
}

// timerCost measures what the wrappers below add: emptyNs is the mean
// reading of a timed interval with nothing in it, which every measured
// Pick or hook duration carries on top of the real work; wrapNs is the
// mean cost of one wrapped Pick beyond the unwrapped call, which every
// traced sim span carries per Pick.
func timerCost() (emptyNs, wrapNs float64) {
	const n = 200_000
	var total int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0).Nanoseconds()
	}
	emptyNs = float64(total) / n
	var st sim.State
	var task core.Task
	var direct sim.Router = nopRouter{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		direct.Pick(&st, task)
	}
	plain := time.Since(t0).Nanoseconds()
	var wrapped sim.Router = &pickTimer{inner: nopRouter{}}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		wrapped.Pick(&st, task)
	}
	wrapNs = float64(time.Since(t0).Nanoseconds()-plain) / n
	return emptyNs, wrapNs
}

type nopRouter struct{}

func (nopRouter) Name() string                   { return "nop" }
func (nopRouter) Pick(*sim.State, core.Task) int { return 0 }

// pickTimer wraps a router and times every Pick. sim.Run chooses its
// EFT-Min fast path by the router's concrete type, so the wrapper is only
// put on calls that would not take it.
type pickTimer struct {
	inner sim.Router
	ns    int64
	picks int64
}

func (p *pickTimer) Name() string { return p.inner.Name() }

func (p *pickTimer) Pick(st *sim.State, t core.Task) int {
	t0 := time.Now()
	j := p.inner.Pick(st, t)
	p.ns += time.Since(t0).Nanoseconds()
	p.picks++
	return j
}

// hookTimer wraps the probe stack and times every hook of all five observer
// interfaces.
type hookTimer struct {
	inner obs.Probe
	ov    obs.OverloadObserver
	mem   obs.MembershipObserver
	hd    obs.HedgeObserver
	res   obs.ResilienceObserver
	ns    int64
	hooks int64
}

func newHookTimer(p obs.Probe) *hookTimer {
	h := &hookTimer{inner: p}
	h.ov, _ = p.(obs.OverloadObserver)
	h.mem, _ = p.(obs.MembershipObserver)
	h.hd, _ = p.(obs.HedgeObserver)
	h.res, _ = p.(obs.ResilienceObserver)
	return h
}

func (h *hookTimer) since(t0 time.Time) {
	h.ns += time.Since(t0).Nanoseconds()
	h.hooks++
}

func (h *hookTimer) OnArrival(task int, release core.Time) {
	t0 := time.Now()
	h.inner.OnArrival(task, release)
	h.since(t0)
}

func (h *hookTimer) OnDispatch(task, server int, at, start, end core.Time) {
	t0 := time.Now()
	h.inner.OnDispatch(task, server, at, start, end)
	h.since(t0)
}

func (h *hookTimer) OnComplete(task, server int, release, proc, end core.Time) {
	t0 := time.Now()
	h.inner.OnComplete(task, server, release, proc, end)
	h.since(t0)
}

func (h *hookTimer) OnDrop(task int, release, at core.Time) {
	t0 := time.Now()
	h.inner.OnDrop(task, release, at)
	h.since(t0)
}

func (h *hookTimer) OnRetry(task, attempt int, at core.Time) {
	t0 := time.Now()
	h.inner.OnRetry(task, attempt, at)
	h.since(t0)
}

func (h *hookTimer) OnFailover(server int, at core.Time, lost int) {
	t0 := time.Now()
	h.inner.OnFailover(server, at, lost)
	h.since(t0)
}

func (h *hookTimer) OnDone(makespan core.Time) {
	t0 := time.Now()
	h.inner.OnDone(makespan)
	h.since(t0)
}

func (h *hookTimer) OnReject(task int, at core.Time, reason string) {
	if h.ov != nil {
		t0 := time.Now()
		h.ov.OnReject(task, at, reason)
		h.since(t0)
	}
}

func (h *hookTimer) OnShed(task, server int, release, at core.Time, reason string) {
	if h.ov != nil {
		t0 := time.Now()
		h.ov.OnShed(task, server, release, at, reason)
		h.since(t0)
	}
}

func (h *hookTimer) OnEject(server int, at core.Time) {
	if h.ov != nil {
		t0 := time.Now()
		h.ov.OnEject(server, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnReadmit(server int, at core.Time) {
	if h.ov != nil {
		t0 := time.Now()
		h.ov.OnReadmit(server, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnBrownout(at core.Time, active bool) {
	if h.ov != nil {
		t0 := time.Now()
		h.ov.OnBrownout(at, active)
		h.since(t0)
	}
}

func (h *hookTimer) OnScaleUp(machine int, at, ready core.Time) {
	if h.mem != nil {
		t0 := time.Now()
		h.mem.OnScaleUp(machine, at, ready)
		h.since(t0)
	}
}

func (h *hookTimer) OnJoin(machine int, at core.Time, members int) {
	if h.mem != nil {
		t0 := time.Now()
		h.mem.OnJoin(machine, at, members)
		h.since(t0)
	}
}

func (h *hookTimer) OnScaleDown(machine int, at core.Time, members, handoffs int) {
	if h.mem != nil {
		t0 := time.Now()
		h.mem.OnScaleDown(machine, at, members, handoffs)
		h.since(t0)
	}
}

func (h *hookTimer) OnHandoff(task, from int, at core.Time) {
	if h.mem != nil {
		t0 := time.Now()
		h.mem.OnHandoff(task, from, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnHedge(task, from, to int, at, start, end core.Time) {
	if h.hd != nil {
		t0 := time.Now()
		h.hd.OnHedge(task, from, to, at, start, end)
		h.since(t0)
	}
}

func (h *hookTimer) OnHedgeWin(task, server int, byCopy bool, at core.Time) {
	if h.hd != nil {
		t0 := time.Now()
		h.hd.OnHedgeWin(task, server, byCopy, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnHedgeCancel(task, server int, at core.Time, started bool) {
	if h.hd != nil {
		t0 := time.Now()
		h.hd.OnHedgeCancel(task, server, at, started)
		h.since(t0)
	}
}

func (h *hookTimer) OnBreakerOpen(server int, at core.Time) {
	if h.res != nil {
		t0 := time.Now()
		h.res.OnBreakerOpen(server, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnBreakerProbe(server, task int, at core.Time) {
	if h.res != nil {
		t0 := time.Now()
		h.res.OnBreakerProbe(server, task, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnBreakerClose(server int, at core.Time) {
	if h.res != nil {
		t0 := time.Now()
		h.res.OnBreakerClose(server, at)
		h.since(t0)
	}
}

func (h *hookTimer) OnRetryBudgetDrop(task, attempts int, at core.Time) {
	if h.res != nil {
		t0 := time.Now()
		h.res.OnRetryBudgetDrop(task, attempts, at)
		h.since(t0)
	}
}
