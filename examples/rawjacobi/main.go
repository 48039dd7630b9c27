// Rawjacobi: the full pipeline on a real benchmark. Builds the jacobi
// kernel for a 16-tile Raw machine (banked, preplaced memory ops from the
// congruence-style interleaving), schedules it with both the convergent
// scheduler and the Rawcc-style baseline, verifies both schedules compute
// the right grid, and prints the comparison the paper's Table 2 row is made
// of.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baseline/rawcc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func main() {
	k, ok := bench.ByName("jacobi")
	if !ok {
		log.Fatal("jacobi kernel not registered")
	}
	const tiles = 16
	m := machine.Raw(tiles)

	// One-tile reference: the speedup denominator.
	g1 := k.Build(1)
	one, err := listsched.Run(g1, machine.Raw(1), listsched.Options{Assignment: make([]int, g1.Len())})
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, sched *schedule.Schedule) {
		res, err := sim.Verify(sched, k.InitMemory(tiles))
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		if err := k.Check(res.Memory, tiles); err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-12s %4d cycles  %4d comms  speedup %.2fx  (verified against host reference)\n",
			label, sched.Length(), sched.CommCount(), float64(one.Length())/float64(sched.Length()))
	}

	fmt.Printf("jacobi on %s: %s\n", m.Name, k.Build(tiles).ComputeStats())
	fmt.Printf("one tile: %d cycles\n\n", one.Length())

	bs, err := rawcc.Schedule(k.Build(tiles), m)
	if err != nil {
		log.Fatal(err)
	}
	run("rawcc", bs)

	cs, convRes, err := core.ScheduleCtx(context.Background(), k.Build(tiles), m, passes.RawSequence(), 2002)
	if err != nil {
		log.Fatal(err)
	}
	run("convergent", cs)

	// Show where the preplaced memory operations anchored the partition.
	gg := k.Build(tiles)
	perTile := make([]int, tiles)
	for i, c := range convRes.Assignment {
		_ = gg.Instrs[i]
		perTile[c]++
	}
	fmt.Printf("\nconvergent assignment, instructions per tile: %v\n", perTile)
	fmt.Println("\nmemory layout sanity check (grid element 11 of array A):")
	g := k.Build(tiles)
	for _, in := range g.Instrs {
		if in.Op.String() == "load" && in.Name == "A[11]" {
			fmt.Printf("  %s lives in bank %d and is preplaced on tile %d\n", in.Name, in.Bank, in.Home)
			break
		}
	}
}
