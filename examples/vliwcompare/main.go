// Vliwcompare: run all four schedulers head-to-head on a clustered VLIW for
// one benchmark — the per-benchmark slice of the paper's Figure 8, with
// compile times attached (the Figure 10 axis).
//
// Usage: vliwcompare [kernel]   (default fir)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func main() {
	name := "fir"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	k, ok := bench.ByName(name)
	if !ok {
		log.Fatalf("unknown kernel %q; available: %v", name, bench.Names())
	}
	const clusters = 4
	m := machine.Chorus(clusters)

	g1 := k.Build(1)
	one, err := listsched.Run(g1, machine.SingleVLIW(), listsched.Options{Assignment: make([]int, g1.Len())})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s (single cluster: %d cycles)\n", name, m.Name, one.Length())
	fmt.Printf("%s\n\n", k.Build(clusters).ComputeStats())
	fmt.Printf("%-12s %8s %8s %9s %10s\n", "scheduler", "cycles", "comms", "speedup", "compile")

	type entry struct {
		label string
		run   func() (*schedule.Schedule, error)
	}
	entries := []entry{
		{"pcc", func() (*schedule.Schedule, error) { return pcc.Schedule(k.Build(clusters), m, pcc.Options{}) }},
		{"uas", func() (*schedule.Schedule, error) { return uas.Schedule(k.Build(clusters), m) }},
		{"rawcc-style", func() (*schedule.Schedule, error) { return rawcc.Schedule(k.Build(clusters), m) }},
		{"convergent", func() (*schedule.Schedule, error) {
			s, _, err := core.ScheduleCtx(context.Background(), k.Build(clusters), m, passes.VliwSequence(), 2002)
			return s, err
		}},
	}
	for _, e := range entries {
		t0 := time.Now()
		s, err := e.run()
		dt := time.Since(t0)
		if err != nil {
			log.Fatalf("%s: %v", e.label, err)
		}
		res, err := sim.Verify(s, k.InitMemory(clusters))
		if err != nil {
			log.Fatalf("%s: %v", e.label, err)
		}
		if err := k.Check(res.Memory, clusters); err != nil {
			log.Fatalf("%s: %v", e.label, err)
		}
		fmt.Printf("%-12s %8d %8d %8.2fx %10s\n",
			e.label, s.Length(), s.CommCount(),
			float64(one.Length())/float64(s.Length()), dt.Round(time.Microsecond))
	}
	fmt.Println("\nall four schedules verified against host-reference semantics")
}
