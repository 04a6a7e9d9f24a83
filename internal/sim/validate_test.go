package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/obs"
	"flowsched/internal/sched"
)

// malformed lists every way a task can break core.Instance.Validate, each as
// an edit of task p of a valid instance. Set edits build a fresh set from
// the task's resolved one, so a full-set task gets a restricted bad set.
var malformed = []struct {
	name string
	edit func(inst *core.Instance, p int)
}{
	{"bad ID", func(in *core.Instance, p int) { in.Tasks[p].ID = p + 7 }},
	{"negative release", func(in *core.Instance, p int) { in.Tasks[p].Release = -1 }},
	{"NaN release", func(in *core.Instance, p int) { in.Tasks[p].Release = math.NaN() }},
	{"+Inf release", func(in *core.Instance, p int) { in.Tasks[p].Release = math.Inf(1) }},
	{"-Inf release", func(in *core.Instance, p int) { in.Tasks[p].Release = math.Inf(-1) }},
	// Task 0 cannot fall below an earlier release, so at p = 0 its release
	// rises above task 1's instead (or, alone, turns negative).
	{"decreasing release", func(in *core.Instance, p int) {
		switch {
		case p > 0 && in.Tasks[p-1].Release > 0:
			in.Tasks[p].Release = in.Tasks[p-1].Release / 2
		case p > 0:
			in.Tasks[p].Release = -1
		case len(in.Tasks) > 1:
			in.Tasks[0].Release = in.Tasks[1].Release + 1
		default:
			in.Tasks[0].Release = -1
		}
	}},
	{"zero proc", func(in *core.Instance, p int) { in.Tasks[p].Proc = 0 }},
	{"negative proc", func(in *core.Instance, p int) { in.Tasks[p].Proc = -1 }},
	{"NaN proc", func(in *core.Instance, p int) { in.Tasks[p].Proc = math.NaN() }},
	{"+Inf proc", func(in *core.Instance, p int) { in.Tasks[p].Proc = math.Inf(1) }},
	{"empty set", func(in *core.Instance, p int) { in.Tasks[p].Set = core.ProcSet{} }},
	{"member below range", func(in *core.Instance, p int) {
		in.Tasks[p].Set = append(core.ProcSet{-1}, in.Tasks[p].Set.Resolve(in.M)...)
	}},
	{"member above range", func(in *core.Instance, p int) {
		in.Tasks[p].Set = append(in.Tasks[p].Set.Resolve(in.M).Clone(), in.M)
	}},
	{"middle member out of range", func(in *core.Instance, p int) {
		s := in.Tasks[p].Set.Resolve(in.M)
		in.Tasks[p].Set = core.ProcSet{s[0], in.M + 3, s[len(s)-1]}
	}},
	{"duplicate member", func(in *core.Instance, p int) {
		s := in.Tasks[p].Set.Resolve(in.M)
		in.Tasks[p].Set = append(core.ProcSet{s[0]}, s...)
	}},
	{"descending pair", func(in *core.Instance, p int) {
		s := in.Tasks[p].Set.Resolve(in.M).Clone()
		if len(s) == 1 {
			s = core.ProcSet{s[0] + 1, s[0]}
		} else {
			s[0], s[1] = s[1], s[0]
		}
		in.Tasks[p].Set = s
	}},
}

// validateRouters returns the routers every rejection is checked under:
// EFT-Min and EFT-Max (member scans and tree descents), a seeded RandTie
// (the EFT loop's candidate path) and JSQ (the generic loop).
func validateRouters() []Router {
	return []Router{
		EFTRouter{}, EFTRouter{Tie: sched.MaxTie{}},
		EFTRouter{Tie: sched.RandTie{Rng: rand.New(rand.NewSource(1))}}, JSQRouter{},
	}
}

// eventLog is a sink that records each event's kind and task.
type eventLog []string

func (l *eventLog) Observe(e obs.Event) { *l = append(*l, fmt.Sprintf("%v %d", e.Kind, e.Task)) }

// TestRunRejectsLikeValidate places every malformed-task kind at the first,
// a middle and the last task of a valid instance whose tasks alternate
// between restricted and full sets. Run must return "sim: " and Validate's
// error under every router, and a probe must have seen the arrival,
// dispatch and completion of every task before the invalid one, nothing of
// that task and no done event.
func TestRunRejectsLikeValidate(t *testing.T) {
	const m, n = 6, 9
	build := func() *core.Instance {
		tasks := make([]core.Task, n)
		for i := range tasks {
			tasks[i] = core.Task{Release: core.Time(1 + i/2), Proc: 1.5}
			if i%3 != 1 {
				tasks[i].Set = core.MustRingInterval(i, 3, m)
			}
		}
		return core.NewInstance(m, tasks)
	}
	for _, mal := range malformed {
		for _, p := range []int{0, n / 2, n - 1} {
			inst := build()
			mal.edit(inst, p)
			verr := inst.Validate()
			if verr == nil {
				t.Fatalf("%s at task %d: Validate accepts the instance", mal.name, p)
			}
			var bad int
			if _, err := fmt.Sscanf(verr.Error(), "task %d:", &bad); err != nil {
				t.Fatalf("%s at task %d: no task index in %q", mal.name, p, verr)
			}
			var want eventLog
			for i := 0; i < bad; i++ {
				want = append(want, fmt.Sprintf("arrival %d", i), fmt.Sprintf("dispatch %d", i), fmt.Sprintf("complete %d", i))
			}
			for _, r := range validateRouters() {
				label := fmt.Sprintf("%s at task %d under %s", mal.name, p, r.Name())
				var got eventLog
				s, met, err := RunProbed(inst, r, obs.Multi(&got))
				if err == nil || err.Error() != "sim: "+verr.Error() {
					t.Errorf("%s: error %v, want %q", label, err, "sim: "+verr.Error())
				}
				if s != nil || met != nil {
					t.Errorf("%s: a rejected run returned a schedule or metrics", label)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: probe saw %v, want %v", label, got, want)
				}
			}
		}
	}
}

// FuzzRunRejectsLikeValidate applies one malformed-task edit (kind 0: none)
// at a fuzz-chosen task of a random instance. An unedited instance must run
// under every router of validateRouters; an edited one must fail under each
// with "sim: " and Validate's error, and never panic.
func FuzzRunRejectsLikeValidate(f *testing.F) {
	for k := 0; k <= len(malformed); k++ {
		f.Add(int64(k+1), uint8(k%16), uint8(20+7*k), uint8(k), uint16(3*k))
	}
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, kind uint8, pos uint16) {
		m, n := 1+int(m8)%16, 1+int(n8)
		inst := randomInstance(m, n, rand.New(rand.NewSource(seed)))
		k := int(kind) % (len(malformed) + 1)
		if k > 0 {
			malformed[k-1].edit(inst, int(pos)%n)
		}
		verr := inst.Validate()
		if (verr == nil) != (k == 0) {
			t.Fatalf("edit %d: Validate = %v", k, verr)
		}
		for _, r := range validateRouters() {
			_, _, err := Run(inst, r)
			switch {
			case k == 0 && err != nil:
				t.Errorf("%s: valid instance rejected: %v", r.Name(), err)
			case k > 0 && (err == nil || err.Error() != "sim: "+verr.Error()):
				t.Errorf("%s after %q: error %v, want %q", r.Name(), malformed[k-1].name, err, "sim: "+verr.Error())
			}
		}
	})
}
