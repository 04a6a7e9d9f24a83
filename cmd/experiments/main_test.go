package main

import (
	"flag"
	"io"
	"testing"
)

// TestApplyQuickKeepsExplicitFlags: -quick shrinks only the size flags the
// command line left at their defaults, wherever -quick appears.
func TestApplyQuickKeepsExplicitFlags(t *testing.T) {
	for _, args := range [][]string{{"-m", "30", "-quick"}, {"-quick", "-m", "30"}} {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		m := fs.Int("m", 15, "")
		n := fs.Int("n", 10000, "")
		reps := fs.Int("reps", 10, "")
		perms := fs.Int("perms", 100, "")
		fs.Bool("quick", false, "")
		if err := fs.Parse(append(args, "fig11")); err != nil {
			t.Fatal(err)
		}
		applyQuick(fs)
		if *m != 30 || *n != 2000 || *reps != 3 || *perms != 10 {
			t.Errorf("%v: m=%d n=%d reps=%d perms=%d, want 30 2000 3 10", args, *m, *n, *reps, *perms)
		}
	}
}
