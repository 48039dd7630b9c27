package listsched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// diffMachines are the models the differential tests drive both table
// implementations on: every mesh size, and crossbars with a transfer unit.
func diffMachines() []*machine.Model {
	return []*machine.Model{
		machine.Raw(2), machine.Raw(4), machine.Raw(8), machine.Raw(16),
		machine.Chorus(2), machine.Chorus(4),
	}
}

// diffGraph builds a random DAG mixing integer, floating-point and memory
// operations, with memory-order edges and preplaced instructions, so every
// resource kind and the memory-predecessor index are exercised.
func diffGraph(rng *rand.Rand, n int, m *machine.Model) *ir.Graph {
	g := ir.New("diff")
	g.AddConst(int64(rng.Intn(100)))
	g.AddFConst(1.5)
	valued := []int{0, 1}
	pick := func() int { return valued[rng.Intn(len(valued))] }
	banks := 2 * m.NumClusters
	var mem []int
	for g.Len() < n {
		var in *ir.Instr
		switch r := rng.Intn(10); {
		case r == 0:
			in = g.AddLoad(rng.Intn(banks), pick())
		case r == 1:
			in = g.AddStore(rng.Intn(banks), pick(), pick())
		case r == 2:
			in = g.Add(ir.FMul, pick(), pick())
		case r == 3:
			in = g.Add(ir.FDiv, pick(), pick())
		case r == 4:
			in = g.Add(ir.Sel, pick(), pick(), pick())
		case r == 5:
			in = g.AddConst(int64(r))
		default:
			in = g.Add([]ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Xor}[rng.Intn(4)], pick(), pick())
		}
		if in.Op.IsMemory() {
			for _, p := range mem {
				if g.Instrs[p].Bank == in.Bank && rng.Intn(3) == 0 {
					g.AddMemEdge(p, in.ID)
				}
			}
			mem = append(mem, in.ID)
			if rng.Intn(4) == 0 {
				in.Home = m.BankOwner(in.Bank)
			}
		} else if rng.Intn(8) == 0 {
			in.Home = rng.Intn(m.NumClusters)
		}
		if in.Op.HasResult() {
			valued = append(valued, in.ID)
		}
	}
	return g
}

// diffAssignment returns a legal assignment: homes and bank owners where
// required, otherwise random, or cluster 0 when crowd is set (the list
// rung's shape, which maximises contention).
func diffAssignment(rng *rand.Rand, g *ir.Graph, m *machine.Model, crowd bool) []int {
	assign := make([]int, g.Len())
	for i, in := range g.Instrs {
		c := 0
		if !crowd {
			c = rng.Intn(m.NumClusters)
		}
		switch {
		case in.Preplaced():
			c = in.Home
		case in.Op.IsMemory():
			if _, ok := m.InstrLatency(in, c); !ok {
				c = m.BankOwner(in.Bank)
			}
		}
		assign[i] = c
	}
	return assign
}

// diffTables schedules g on m with the dense Tables and the map-based
// reference side by side, driving both through the same Run-style
// probe→commit→Place sequence. Before each candidate is tried on its
// cluster, it is probed UAS-style (EarliestStart without commit, FindFU and
// Arrival) on every cluster it could run on; in uasPick mode the first
// feasible cluster of a random order is taken instead of the assignment.
// Every call must return the same result from both implementations.
func diffTables(t testing.TB, g *ir.Graph, m *machine.Model, assign []int, rng *rand.Rand, uasPick bool) {
	t.Helper()
	if err := CheckGraph(g, m); err != nil {
		t.Fatalf("generated graph unschedulable: %v", err)
	}
	if err := CheckAssignment(g, m, assign); err != nil {
		t.Fatalf("generated assignment illegal: %v", err)
	}
	dense, ref := NewTables(g, m), newMapTables(g, m)
	same := func(got, want int, format string, args ...any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s on %s: dense %d, reference %d", fmt.Sprintf(format, args...), m.Name, got, want)
		}
	}
	n, nc := g.Len(), m.NumClusters
	prio := CriticalPathPriority(g, m)
	pending := make([]int, n)
	var candidates []int
	for i := 0; i < n; i++ {
		if pending[i] = len(g.Preds(i)); pending[i] == 0 {
			candidates = append(candidates, i)
		}
	}
	order := &byPriority{prio: prio}
	bound := 16
	for _, in := range g.Instrs {
		bound += m.OpLatency(in.Op) + m.MaxCommLatency() + 1
	}
	var placed []int
	for cycle := 0; len(placed) < n; cycle++ {
		if cycle > bound {
			t.Fatalf("no progress by cycle %d on %s", cycle, m.Name)
		}
		order.ids = candidates
		sort.Sort(order)
		var next, newly []int
		for _, i := range candidates {
			in := g.Instrs[i]
			cl := assign[i]
			perm := rng.Perm(nc)
			picked := false
			for _, c := range perm {
				if _, ok := m.InstrLatency(in, c); !ok || (in.Preplaced() && c != in.Home) {
					continue
				}
				est := dense.EarliestStart(i, c, false)
				same(est, ref.EarliestStart(i, c, false), "probe EarliestStart(%d, %d)", i, c)
				fu := dense.FindFU(in.Op, c, cycle)
				same(fu, ref.FindFU(in.Op, c, cycle), "FindFU(%v, %d, %d)", in.Op, c, cycle)
				for _, a := range in.Args {
					same(dense.Arrival(a, c), ref.Arrival(a, c), "Arrival(%d, %d)", a, c)
				}
				if uasPick && !picked && est <= cycle && fu >= 0 {
					cl, picked = c, true
				}
			}
			est := dense.EarliestStart(i, cl, false)
			same(est, ref.EarliestStart(i, cl, false), "probe EarliestStart(%d, %d)", i, cl)
			if est > cycle {
				next = append(next, i)
				continue
			}
			fu := dense.FindFU(in.Op, cl, cycle)
			same(fu, ref.FindFU(in.Op, cl, cycle), "FindFU(%v, %d, %d)", in.Op, cl, cycle)
			if fu < 0 {
				next = append(next, i)
				continue
			}
			est = dense.EarliestStart(i, cl, true)
			same(est, ref.EarliestStart(i, cl, true), "commit EarliestStart(%d, %d)", i, cl)
			if est > cycle {
				next = append(next, i)
				continue
			}
			dense.Place(i, cl, fu, cycle)
			ref.Place(i, cl, fu, cycle)
			placed = append(placed, i)
			newly = append(newly, i)
		}
		candidates = next
		for _, i := range newly {
			for _, s := range g.Succs(i) {
				if pending[s]--; pending[s] == 0 {
					candidates = append(candidates, s)
				}
			}
		}
		// Extra traffic a consumer-driven scheduler never asks for:
		// route a random placed value to a random cluster.
		if rng.Intn(4) == 0 {
			v, c := placed[rng.Intn(len(placed))], rng.Intn(nc)
			if g.Instrs[v].Op.HasResult() {
				same(dense.ProbeRoute(v, c), ref.ProbeRoute(v, c), "ProbeRoute(%d, %d)", v, c)
				same(dense.Route(v, c), ref.Route(v, c), "Route(%d, %d)", v, c)
			}
		}
		for c := 0; c < nc; c++ {
			for fu := range m.FUs {
				for _, at := range []int{cycle, cycle + 1 + rng.Intn(8)} {
					if dense.FUFree(c, fu, at) != ref.FUFree(c, fu, at) {
						t.Fatalf("FUFree(%d, %d, %d) on %s differs", c, fu, at, m.Name)
					}
				}
			}
		}
		same(dense.PlacedCount(), ref.PlacedCount(), "PlacedCount")
	}
	ds, rs := dense.Schedule(), ref.Schedule()
	if df, rf := ds.Fingerprint(), rs.Fingerprint(); df != rf {
		t.Fatalf("schedules on %s differ: dense %s, reference %s", m.Name, df, rf)
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("dense schedule on %s invalid: %v", m.Name, err)
	}
}

func TestTablesMatchMapReference(t *testing.T) {
	for mi, m := range diffMachines() {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(mi)))
			n := 20 + rng.Intn(180)
			g := diffGraph(rng, n, m)
			crowd, uasPick := seed%3 == 0, seed%2 == 1
			diffTables(t, g, m, diffAssignment(rng, g, m, crowd), rng, uasPick)
		}
	}
}

// FuzzTables drives the dense tables and the map-based reference through
// the same probe/commit/place sequence on a generated graph, machine and
// assignment, and fails on the first call whose results differ.
func FuzzTables(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(120), uint8(3), uint8(1))
	f.Add(int64(3), uint8(90), uint8(5), uint8(2))
	f.Add(int64(4), uint8(200), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, mach, mode uint8) {
		machines := diffMachines()
		m := machines[int(mach)%len(machines)]
		rng := rand.New(rand.NewSource(seed))
		g := diffGraph(rng, 3+int(size), m)
		diffTables(t, g, m, diffAssignment(rng, g, m, mode&1 != 0), rng, mode&2 != 0)
	})
}
