package exp

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/regalloc"
	"repro/internal/schedule"
	"repro/internal/sim"
)

// allSchedulers enumerates every scheduler under its table name.
func allSchedulers() map[string]func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
	return map[string]func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error){
		"convergent": func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			s, _, err := core.ScheduleCtx(context.Background(), g, m, passes.ForMachine(m.Name), Seed)
			return s, err
		},
		"rawcc": func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return rawcc.Schedule(g, m)
		},
		"uas": func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return uas.Schedule(g, m)
		},
		"pcc": func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return pcc.Schedule(g, m, pcc.Options{})
		},
	}
}

// serialBound returns an upper bound no sane schedule should exceed: fully
// serial execution plus a worst-case communication per instruction.
func serialBound(g *ir.Graph, m *machine.Model) int {
	bound := 1
	maxComm := m.MaxCommLatency()
	for _, in := range g.Instrs {
		bound += m.OpLatency(in.Op) + maxComm + 1
	}
	return bound
}

// TestQuickSchedulerInvariants drives every scheduler over random graphs on
// a VLIW machine and asserts the metamorphic invariants that hold for any
// correct scheduler: the schedule validates, simulation matches reference
// semantics, the makespan lies between the critical-path bound and the
// serial bound, and register allocation with a huge file never spills.
func TestQuickSchedulerInvariants(t *testing.T) {
	m := machine.Chorus(4)
	scheds := allSchedulers()
	f := func(seed int64) bool {
		n := 30 + int(uint64(seed)%40)
		g := bench.RandomLayered(n, n/8+2, 4, seed)
		cpl := g.CriticalPathLength(m.LatencyFunc())
		upper := serialBound(g, m)
		for name, sched := range scheds {
			s, err := sched(g, m)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if s.Length() < cpl {
				t.Logf("seed %d %s: length %d below CPL %d", seed, name, s.Length(), cpl)
				return false
			}
			if s.Length() > upper {
				t.Logf("seed %d %s: length %d above serial bound %d", seed, name, s.Length(), upper)
				return false
			}
			if _, err := sim.Verify(s, sim.NewMemory()); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			ra, err := regalloc.Allocate(s, 1024)
			if err != nil || ra.SpillCount() != 0 {
				t.Logf("seed %d %s: regalloc spilled %d with 1024 regs (%v)", seed, name, ra.SpillCount(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestQuickRawSchedulerInvariants repeats the invariant suite on a Raw mesh
// (link-level network model, preplaced memory semantics).
func TestQuickRawSchedulerInvariants(t *testing.T) {
	m := machine.Raw(4)
	scheds := allSchedulers()
	f := func(seed int64) bool {
		n := 25 + int(uint64(seed)%30)
		g := bench.RandomLayered(n, n/8+2, 4, seed)
		cpl := g.CriticalPathLength(m.LatencyFunc())
		upper := serialBound(g, m)
		for name, sched := range scheds {
			s, err := sched(g, m)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if s.Length() < cpl || s.Length() > upper {
				t.Logf("seed %d %s: length %d outside [%d,%d]", seed, name, s.Length(), cpl, upper)
				return false
			}
			if _, err := sim.Verify(s, sim.NewMemory()); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestDeterminism ensures every scheduler is reproducible: two runs over
// the same input produce identical schedules.
func TestDeterminism(t *testing.T) {
	m := machine.Chorus(4)
	g := bench.RandomLayered(120, 16, 4, 99)
	for name, sched := range allSchedulers() {
		a, err := sched(g, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := sched(g, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Length() != b.Length() || a.CommCount() != b.CommCount() {
			t.Errorf("%s: nondeterministic: %d/%d vs %d/%d cycles/comms",
				name, a.Length(), a.CommCount(), b.Length(), b.CommCount())
		}
		for i := range a.Placements {
			if a.Placements[i] != b.Placements[i] {
				t.Errorf("%s: placement %d differs across runs", name, i)
				break
			}
		}
	}
}
