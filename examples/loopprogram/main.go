// Loopprogram: whole-program compilation across scheduling regions.
//
// The paper's second source of preplaced instructions is values that live
// across scheduling regions: "its definitions and uses must be mapped to a
// consistent cluster". This example builds a control-flow graph — an
// iterative computation with a data-dependent exit — compiles every basic
// block as its own scheduling unit under both published home policies
// (Chorus's everything-on-cluster-0 and a Rawcc-style distribution), runs
// the compiled program with the branch directions coming out of the
// scheduled code itself, and verifies the result against the region-level
// interpreter.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baseline/rawcc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/region"
	"repro/internal/schedule"
)

// buildProgram: a Collatz-like iteration with an accumulator:
//
//	n = 27; steps = 0
//	while n != 1 { if n odd { n = 3n+1 } else { n = n/2 }; steps++ }
//	result = steps
func buildProgram() (*region.Fn, region.VarID) {
	f := region.NewFn("collatz")
	n := f.Var("n")
	steps := f.Var("steps")
	one := f.Var("one")
	two := f.Var("two")
	three := f.Var("three")
	odd := f.Var("odd")
	cont := f.Var("cont")

	entry := f.Blocks[0]
	head := f.NewBlock()
	oddB := f.NewBlock()
	evenB := f.NewBlock()
	latch := f.NewBlock()
	exit := f.NewBlock()

	entry.EmitConst(n, 27)
	entry.EmitConst(steps, 0)
	entry.EmitConst(one, 1)
	entry.EmitConst(two, 2)
	entry.EmitConst(three, 3)
	entry.Jump(head.ID)

	head.Emit(odd, ir.And, n, one)
	head.Branch(odd, oddB.ID, evenB.ID)

	oddB.Emit(n, ir.Mul, n, three)
	oddB.Emit(n, ir.Add, n, one)
	oddB.Jump(latch.ID)

	evenB.Emit(n, ir.Div, n, two)
	evenB.Jump(latch.ID)

	latch.Emit(steps, ir.Add, steps, one)
	latch.Emit(cont, ir.Seq, n, one) // cont = (n == 1)
	latch.Branch(cont, exit.ID, head.ID)

	exit.Ret()
	f.Output(steps)
	return f, steps
}

func main() {
	f, steps := buildProgram()
	if err := f.SetProfile(10000); err != nil {
		log.Fatal(err)
	}
	fmt.Println("traces (hottest first):")
	for _, tr := range f.Traces() {
		fmt.Printf("  blocks %v (weight %d)\n", tr.Blocks, tr.Count)
	}

	m := machine.Raw(4)
	schedulers := []struct {
		label string
		fn    region.Scheduler
	}{
		{"rawcc", func(g *ir.Graph, mm *machine.Model) (*schedule.Schedule, error) {
			return rawcc.Schedule(g, mm)
		}},
		{"convergent", func(g *ir.Graph, mm *machine.Model) (*schedule.Schedule, error) {
			s, _, err := core.ScheduleCtx(context.Background(), g, mm, passes.RawSequence(), 2002)
			return s, err
		}},
	}
	policies := []struct {
		label string
		p     region.HomePolicy
	}{
		{"first-cluster (Chorus policy)", region.FirstCluster},
		{"round-robin (Rawcc policy)", region.RoundRobin},
	}

	fmt.Printf("\n%-12s %-30s %12s %8s\n", "scheduler", "cross-region home policy", "total cycles", "steps")
	for _, sc := range schedulers {
		for _, pol := range policies {
			c, err := region.Compile(f, m, pol.p, sc.fn)
			if err != nil {
				log.Fatal(err)
			}
			ex, err := c.VerifyAgainstInterpreter(10000)
			if err != nil {
				log.Fatal(err)
			}
			got := ex.Memory.Load(c.Layout.Home[steps], c.Layout.Addr(steps))
			fmt.Printf("%-12s %-30s %12d %8d\n", sc.label, pol.label, ex.Cycles, got.AsInt())
			if got.AsInt() != 111 { // Collatz steps for 27
				log.Fatalf("wrong answer: %v", got)
			}
		}
	}
	fmt.Println("\nall four verified against the region-level interpreter (27 reaches 1 in 111 steps)")
}
