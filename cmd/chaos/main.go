// Command chaos runs the randomized soak harness: seed-driven trials over
// workload × replication × fault plan × router × retry policy, each audited
// against the schedule invariants (internal/audit) and cross-checked by a
// counting probe. Failing trials are shrunk to minimal repros and written
// as replayable JSON.
//
// Usage:
//
//	chaos [-trials 200] [-seed 1] [-maxm 12] [-maxn 300] [-repro DIR]
//	chaos -replay FILE
//
// Exit status: 0 when every trial audits clean (or the replayed repro no
// longer fails), 1 when violations were found (a -replay prints them to
// stderr), 2 on usage errors, 3 when -replay cannot open or parse the repro
// file. The 1-vs-3 split lets scripts tell "the bug is still there" from
// "the repro file is unusable".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"flowsched/internal/chaos"
	"flowsched/internal/obs"
)

func main() {
	trials := flag.Int("trials", 200, "number of randomized trials")
	seed := flag.Int64("seed", 1, "run seed; every trial derives from it deterministically")
	maxM := flag.Int("maxm", 12, "largest cluster size sampled")
	maxN := flag.Int("maxn", 300, "largest task count sampled")
	workers := flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	reproDir := flag.String("repro", "", "directory to write repro JSON files for failing trials")
	replay := flag.String("replay", "", "replay a repro file instead of running a soak")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "chaos: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	if *replay != "" {
		os.Exit(replayRepro(*replay))
	}
	if *trials < 1 {
		fmt.Fprintln(os.Stderr, "chaos: -trials must be at least 1")
		os.Exit(2)
	}

	cfg := chaos.Config{
		Trials:  *trials,
		Seed:    *seed,
		MaxM:    *maxM,
		MaxN:    *maxN,
		Workers: *workers,
	}
	sum, err := chaos.Run(cfg, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(2)
	}
	if sum.Ok() {
		fmt.Printf("chaos: all %d trials clean (seed %d)\n", sum.Trials, *seed)
		return
	}
	if *reproDir != "" {
		if err := os.MkdirAll(*reproDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(2)
		}
		for _, f := range sum.Failures {
			if f.Repro == nil {
				continue
			}
			path := filepath.Join(*reproDir, fmt.Sprintf("repro-trial%d-seed%d.json", f.Params.Trial, f.Params.Seed))
			if err := writeRepro(path, f); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(2)
			}
			fmt.Printf("chaos: wrote %s\n", path)
			if len(f.Events) > 0 {
				epath := filepath.Join(*reproDir, fmt.Sprintf("repro-trial%d-seed%d.events.jsonl", f.Params.Trial, f.Params.Seed))
				if err := writeEvents(epath, f.Events); err != nil {
					fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
					os.Exit(2)
				}
				fmt.Printf("chaos: wrote %s\n", epath)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "chaos: %d of %d trials failed\n", len(sum.Failures), sum.Trials)
	os.Exit(1)
}

// writeEvents dumps the failure's flight-recorder event stream next to the
// repro, so a soak failure ships with the raw sequence that produced it.
func writeEvents(path string, events []obs.FlightEvent) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := obs.WriteFlightEvents(out, events); err != nil {
		return err
	}
	return out.Close()
}

func writeRepro(path string, f chaos.Failure) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := f.Repro.WriteJSON(out); err != nil {
		return err
	}
	return out.Close()
}

func replayRepro(path string) int {
	// An unreadable or unparseable repro file exits 3 — distinct from both a
	// usage error (2) and a still-failing replay (1), so CI scripts looping
	// over a repro directory can separate stale artifacts from live bugs.
	in, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 3
	}
	defer in.Close()
	repro, err := chaos.ReadRepro(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %s: %v\n", path, err)
		return 3
	}
	vs, err := repro.Replay(nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 2
	}
	if len(vs) == 0 {
		fmt.Printf("chaos: repro %s no longer fails\n", path)
		return 0
	}
	fmt.Fprintf(os.Stderr, "chaos: repro %s still fails with %d violation(s):\n", path, len(vs))
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	return 1
}
