// maxload answers a capacity-planning question with the LP analysis of
// Section 7.2: given a cluster with a Zipf popularity bias, how much load
// can it sustain for each replication factor, and how much of that is lost
// by choosing disjoint blocks (which carry the (3 − 2/k) EFT guarantee)
// over overlapping intervals (which do not)? flowsched.MaxLoad solves
// LP (15) exactly at any cluster size.
//
// Run with: go run ./examples/maxload [-m 15] [-s 1.25]
package main

import (
	"flag"
	"fmt"

	"flowsched"
)

func main() {
	m := flag.Int("m", 15, "cluster size")
	s := flag.Float64("s", 1.25, "Zipf popularity bias (worst-case ordering)")
	flag.Parse()

	weights := flowsched.ZipfWeights(*m, *s)
	fmt.Printf("max sustainable cluster load, m=%d machines, Zipf bias s=%v\n", *m, *s)
	fmt.Printf("(LP (15), exact; 100%% = every machine busy full time)\n\n")
	fmt.Printf("%-4s  %-14s  %-14s  %-8s\n", "k", "overlapping %", "disjoint %", "gain")
	for k := 1; k <= *m; k++ {
		ov := flowsched.MaxLoadPercent(flowsched.MaxLoad(weights, flowsched.OverlappingReplication(k)), *m)
		dj := flowsched.MaxLoadPercent(flowsched.MaxLoad(weights, flowsched.DisjointReplication(k)), *m)
		gain := ov / dj
		fmt.Printf("%-4d  %-14.1f  %-14.1f  %.2fx\n", k, ov, dj, gain)
	}

	fmt.Printf("\nwithout replication the same cluster saturates at %.1f%% ",
		flowsched.MaxLoadPercent(flowsched.MaxLoad(weights, flowsched.NoReplication()), *m))
	fmt.Println("(the most popular machine is the bottleneck).")
	fmt.Println("k = m removes the bias entirely; k = 3 is the standard replication factor in key-value stores.")
}
