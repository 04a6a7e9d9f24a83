package sched

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/core"
)

// FuzzEFTDispatch decodes raw bytes into a small instance and checks that
// every scheduler produces a feasible schedule: EFT never assigns outside
// the processing set, before the release, or overlapping, no matter how the
// instance is shaped. At every task, EFT-Min's and EFT-Max's one-pass pick
// must be the machine their tie-break picks from TieSet.
func FuzzEFTDispatch(f *testing.F) {
	f.Add([]byte{3, 5, 0, 1, 7, 2, 2, 9, 1, 4})
	f.Add([]byte{1, 1, 0, 0})
	f.Add([]byte{8, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 + int(data[0])%8
		n := int(data[1]) % 24
		data = data[2:]
		byteAt := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		tasks := make([]core.Task, 0, n)
		for i := 0; i < n; i++ {
			release := float64(byteAt(3*i) % 16)
			proc := 0.25 * float64(1+byteAt(3*i+1)%16)
			var set core.ProcSet
			mask := byteAt(3*i + 2)
			if mask != 0 {
				var ids []int
				for j := 0; j < m && j < 8; j++ {
					if mask&(1<<uint(j)) != 0 {
						ids = append(ids, j)
					}
				}
				if len(ids) == 0 {
					ids = []int{int(mask) % m}
				}
				set = core.NewProcSet(ids...)
			}
			tasks = append(tasks, core.Task{Release: release, Proc: proc, Set: set})
		}
		inst := core.NewInstance(m, tasks)
		if err := inst.Validate(); err != nil {
			t.Fatalf("generated instance invalid: %v", err)
		}
		checkDispatchMatchesTieSet(t, inst.M, inst.Tasks)
		for _, alg := range []Algorithm{
			NewEFT(MinTie{}),
			NewEFT(MaxTie{}),
			NewJSQ(),
		} {
			s, err := alg.Run(inst)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s produced infeasible schedule: %v", alg.Name(), err)
			}
		}
	})
}

// checkDispatchMatchesTieSet feeds the tasks to EFT-Min and EFT-Max and
// fails unless each Dispatch picks Tie.Pick(TieSet(r, set)), read from the
// same completions just before it.
func checkDispatchMatchesTieSet(t *testing.T, m int, tasks []core.Task) {
	t.Helper()
	for _, tie := range []TieBreak{MinTie{}, MaxTie{}} {
		e := NewEFT(tie)
		e.Reset(m)
		for i, task := range tasks {
			want := tie.Pick(e.TieSet(task.Release, task.Set))
			if d := e.Dispatch(task); d.Machine != want {
				t.Fatalf("EFT-%s, task %d (r=%v, set %v): Dispatch picks M%d, TieSet's pick is M%d",
					tie.Name(), i, task.Release, task.Set, d.Machine+1, want+1)
			}
		}
	}
}

// TestEFTDispatchMatchesTieSet runs the fuzzer's pick check on tie-heavy
// random instances, restricted and not, whose releases include −0 and, fed
// to Dispatch directly, NaN and negative values.
func TestEFTDispatchMatchesTieSet(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	odd := []core.Time{math.Copysign(0, -1), math.NaN(), -2, math.Inf(1)}
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(12)
		tasks := make([]core.Task, 1+rng.Intn(80))
		for i := range tasks {
			tasks[i] = core.Task{Release: float64(i / (1 + rng.Intn(2*m))), Proc: float64(1 + rng.Intn(3))}
			if rng.Intn(3) > 0 {
				tasks[i].Set = core.MustRingInterval(rng.Intn(m), 1+rng.Intn(m), m)
			}
			if rng.Intn(20) == 0 {
				tasks[i].Release = odd[rng.Intn(len(odd))]
			}
		}
		checkDispatchMatchesTieSet(t, m, tasks)
	}
}
