// Custompass: write a new convergent-scheduling heuristic against the pass
// interface and splice it into the published sequence.
//
// The paper's Section 2 sketches exactly this scenario: "if an architecture
// is able to exploit auto-increment on memory-access with a specific
// instruction, one pass could try to keep together memory-accesses and
// increments". Our machine model has no auto-increment, but the same idea
// applies to address arithmetic in general: keeping a load's address
// computation on the load's home tile turns a 3-cycle network hop into a
// local register read. AddrAffinity implements that in ~30 lines and this
// example measures what it buys on a pointer-chasing kernel.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/sim"
)

// AddrAffinity pulls each memory operation's address producer toward the
// memory operation's home cluster. It only nudges non-preplaced, non-const
// producers, and it communicates purely through the weight map — nothing
// else in the framework knows it exists.
type AddrAffinity struct {
	// Factor is the boost toward the consumer's home (default 4).
	Factor float64
}

// Name implements core.Pass.
func (AddrAffinity) Name() string { return "ADDRAFF" }

// Run implements core.Pass.
//
// Earlier passes amplify weights multiplicatively (COMM in particular), so
// a late pass that merely multiplies by a constant may never flip a
// decision. The interface deliberately allows a pass to express as much
// confidence as its constraint deserves (paper Section 2, feature 2):
// AddrAffinity tops the home cluster up until it leads by Factor.
func (p AddrAffinity) Run(s *core.State) {
	f := p.Factor
	if f == 0 {
		f = 2
	}
	for _, in := range s.Graph.Instrs {
		if !in.Op.IsMemory() || !in.Preplaced() {
			continue
		}
		addr := s.Graph.Instrs[in.Args[0]]
		if addr.Preplaced() || addr.Op.IsConst() {
			continue
		}
		top := 0.0
		for c := 0; c < s.W.Clusters(); c++ {
			if c != in.Home && s.W.ClusterWeight(addr.ID, c) > top {
				top = s.W.ClusterWeight(addr.ID, c)
			}
		}
		if cur := s.W.ClusterWeight(addr.ID, in.Home); cur < f*top && cur > 0 {
			s.W.MulCluster(addr.ID, in.Home, f*top/cur)
		}
	}
}

// buildKernel makes a kernel with real address arithmetic: indirect loads
// b[a[i]] with the inner index computed, so every load has a non-trivial
// address producer.
func buildKernel(tiles int) *ir.Graph {
	g := ir.New("indirect")
	for i := 0; i < 24; i++ {
		bankA := i % tiles
		bankB := (i + 1) % tiles // the indirect access hits another bank
		idx := g.AddConst(int64(i))
		ld1 := g.AddLoad(bankA, idx.ID) // a[i]
		ld1.Home = bankA
		three := g.AddConst(3)
		addr2 := g.Add(ir.Mul, ld1.ID, three.ID) // scale the index
		off := g.AddConst(int64(100 + i))
		addr3 := g.Add(ir.Add, addr2.ID, off.ID)
		ld2 := g.AddLoad(bankB, addr3.ID) // b[3*a[i] + off]
		ld2.Home = bankB
		sum := g.Add(ir.Add, ld2.ID, ld1.ID)
		st := g.AddStore(bankB, idx.ID, sum.ID)
		st.Home = bankB
	}
	return g
}

func scheduleWith(seq []core.Pass, tiles int) (cycles, comms int) {
	g := buildKernel(tiles)
	m := machine.Raw(tiles)
	sched, _, err := core.ScheduleCtx(context.Background(), g, m, seq, 2002)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Verify(sched, sim.NewMemory()); err != nil {
		log.Fatal(err)
	}
	return sched.Length(), sched.CommCount()
}

func main() {
	const tiles = 4
	base := passes.RawSequence()
	// Splice the custom pass in near the end, once homes are strongly
	// expressed, so its hint is the last word on the address producers.
	custom := append([]core.Pass{}, base...)
	custom = append(custom[:len(custom)-1], AddrAffinity{}, base[len(base)-1])

	c0, m0 := scheduleWith(base, tiles)
	c1, m1 := scheduleWith(custom, tiles)
	fmt.Printf("published Raw sequence:     %3d cycles, %3d communications\n", c0, m0)
	fmt.Printf("with AddrAffinity spliced:  %3d cycles, %3d communications\n", c1, m1)
	switch {
	case c1 < c0:
		fmt.Println("the custom pass shortened the schedule")
	case c1 == c0:
		fmt.Println("same length (the other passes already made good choices)")
	default:
		fmt.Println("the custom pass lost cycles here — passes are hints, not laws")
	}
}
