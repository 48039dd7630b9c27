// Command regionc compiles and runs a whole control-flow program (.cfg
// text format, see internal/region.ParseFn) for a spatial machine: every
// basic block becomes a scheduling unit, cross-region values become
// preplaced memory cells, and the compiled program executes with its
// branch directions coming out of the scheduled code.
//
// Usage:
//
//	regionc -machine raw4 -scheduler convergent -policy roundrobin prog.cfg
//	regionc -ifconvert -superblocks prog.cfg     # unit-enlarging transforms
//
// Output: the trace structure, per-block schedule lengths, total dynamic
// cycles, and the final value of every declared output — all verified
// against the region-level interpreter.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/region"
	"repro/internal/robust"
	"repro/internal/schedule"
)

func main() {
	machineName := flag.String("machine", "raw4", "target machine (rawN or vliwN)")
	scheduler := flag.String("scheduler", "convergent", "convergent|rawcc|uas|pcc|list")
	policy := flag.String("policy", "roundrobin", "cross-region value placement: firstcluster|roundrobin")
	ifconvert := flag.Bool("ifconvert", false, "if-convert diamonds/triangles before compiling")
	superblocks := flag.Bool("superblocks", false, "tail-duplicate side entrances before compiling")
	maxSteps := flag.Int("maxsteps", 100000, "dynamic block-execution bound")
	seed := flag.Int64("seed", 2002, "convergent noise seed")
	flag.Parse()

	if err := run(*machineName, *scheduler, *policy, *ifconvert, *superblocks, *maxSteps, *seed, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "regionc:", err)
		os.Exit(1)
	}
}

func run(machineName, scheduler, policy string, ifconvert, superblocks bool, maxSteps int, seed int64, args []string) error {
	m, err := machine.Named(machineName)
	if err != nil {
		return err
	}
	var f *region.Fn
	switch len(args) {
	case 0:
		f, err = region.ParseFn(os.Stdin)
	case 1:
		file, oerr := os.Open(args[0])
		if oerr != nil {
			return oerr
		}
		defer file.Close()
		f, err = region.ParseFn(file)
	default:
		return fmt.Errorf("want at most one input file")
	}
	if err != nil {
		return err
	}
	if err := f.SetProfile(maxSteps); err != nil {
		return err
	}
	if ifconvert {
		n := region.IfConvert(f)
		fmt.Printf("if-converted %d branch patterns\n", n)
	}
	if superblocks {
		n := region.FormSuperblocks(f)
		fmt.Printf("tail-duplicated %d blocks\n", n)
		if err := f.SetProfile(maxSteps); err != nil {
			return err
		}
	}
	fmt.Printf("%s: %d blocks, %d variables\n", f.Name, len(f.Blocks), len(f.Vars))
	for _, tr := range f.Traces() {
		fmt.Printf("  trace %v (weight %d)\n", tr.Blocks, tr.Count)
	}

	var pol region.HomePolicy
	switch policy {
	case "firstcluster":
		pol = region.FirstCluster
	case "roundrobin":
		pol = region.RoundRobin
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	ladder, _, err := robust.LadderFor(m, scheduler, false, false, seed)
	if err != nil {
		return err
	}
	c, err := region.Compile(f, m, pol, func(g *ir.Graph, _ *machine.Model) (*schedule.Schedule, error) {
		return ladder[0].Run(context.Background(), g)
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nper-block schedules on %s (%s):\n", m.Name, scheduler)
	for bid, unit := range c.Units {
		fmt.Printf("  block %d: %3d instrs, %4d cycles, %3d comms (ran %dx)\n",
			bid, unit.Graph.Len(), unit.Sched.Length(), unit.Sched.CommCount(), f.Blocks[bid].Count)
	}
	ex, err := c.VerifyAgainstInterpreter(maxSteps)
	if err != nil {
		return err
	}
	fmt.Printf("\ntotal dynamic cycles: %d (verified against the interpreter)\n", ex.Cycles)
	for _, v := range f.Outputs {
		val := ex.Memory.Load(c.Layout.Home[v], c.Layout.Addr(v))
		fmt.Printf("output %s = %s\n", f.Vars[v], val)
	}
	return nil
}
