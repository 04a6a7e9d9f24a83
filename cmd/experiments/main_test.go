package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// quickGoldenFile pins the output of `experiments -quick all`, every table
// and figure of the evaluation at reduced size. It is regenerated only for an
// intended change to what the evaluation prints:
//
//	go test ./cmd/experiments -run TestQuickAllGolden -update-quick
const quickGoldenFile = "testdata/quick_all.golden"

var updateQuick = flag.Bool("update-quick", false, "rewrite "+quickGoldenFile+" from the current build")

// TestQuickAllGolden runs `experiments -quick all` in-process and compares
// its stdout byte for byte with the recorded baseline, so a refactor that
// claims unchanged behaviour is checked against every experiment cell.
func TestQuickAllGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if *updateQuick {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGoldenFile, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-quick)", err)
	}
	if bytes.Equal(stdout.Bytes(), want) {
		return
	}
	got, exp := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("output differs from %s at line %d (of %d, want %d):\n got: %q\nwant: %q", quickGoldenFile, i+1, len(got), len(exp), g, e)
		}
	}
}

// TestRunUsageErrors: a missing experiment name, an unknown flag and an
// unknown experiment each fail with a non-zero exit code and a message on
// stderr, and print nothing to stdout.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-nosuchflag", "fig1"}, 2},
		{[]string{"nosuchexperiment"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit code %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}

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
