package schedule

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// handSchedule builds a tiny legal two-tile schedule by hand:
//
//	tile0: cycle0 const ; cycle1 neg(const) ; cycle2 send neg->1
//	tile1: cycle5 not(neg)
func handSchedule(t *testing.T) *Schedule {
	t.Helper()
	g := ir.New("hand")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	g.Add(ir.Not, b.ID)
	m := machine.Raw(2)
	s := New(g, m)
	s.Placements[0] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[1] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Placements[2] = Placement{Cluster: 1, FU: 0, Start: 5, Latency: 1}
	s.Comms = []Comm{{Value: b.ID, From: 0, To: 1, Depart: 2, Arrive: 5}}
	if err := s.Validate(); err != nil {
		t.Fatalf("hand schedule invalid: %v", err)
	}
	return s
}

func TestHandScheduleLength(t *testing.T) {
	s := handSchedule(t)
	if got := s.Length(); got != 6 {
		t.Errorf("Length = %d, want 6", got)
	}
	if got := s.ArrivalOn(1, 1); got != 5 {
		t.Errorf("ArrivalOn(1,1) = %d, want 5", got)
	}
	if got := s.ArrivalOn(1, 0); got != 2 {
		t.Errorf("ArrivalOn(1,0) = %d, want 2", got)
	}
	if got := s.ArrivalOn(2, 0); got != -1 {
		t.Errorf("ArrivalOn(2,0) = %d, want -1", got)
	}
	// Immediate-broadcast rule: the constant is usable everywhere once
	// materialised.
	if got := s.ArrivalOn(0, 1); got != 1 {
		t.Errorf("ArrivalOn(const,1) = %d, want 1", got)
	}
}

func expectInvalid(t *testing.T, s *Schedule, fragment string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("Validate accepted schedule; want error containing %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("Validate error %q does not mention %q", err, fragment)
	}
}

func TestValidateCatchesMissingComm(t *testing.T) {
	s := handSchedule(t)
	s.Comms = nil
	expectInvalid(t, s, "never arrives")
}

func TestValidateCatchesEarlyConsumer(t *testing.T) {
	s := handSchedule(t)
	s.Placements[2].Start = 4
	expectInvalid(t, s, "before operand")
}

func TestValidateCatchesEarlyDeparture(t *testing.T) {
	s := handSchedule(t)
	s.Comms[0].Depart = 1 // value ready at 2
	s.Comms[0].Arrive = 4
	expectInvalid(t, s, "before value")
}

func TestValidateCatchesWrongCommLatency(t *testing.T) {
	s := handSchedule(t)
	s.Comms[0].Arrive = 3
	expectInvalid(t, s, "arrives at")
}

func TestValidateCatchesSelfComm(t *testing.T) {
	s := handSchedule(t)
	s.Placements[2].Cluster = 0
	s.Placements[2].Start = 2
	s.Comms[0].To = 0
	expectInvalid(t, s, "to itself")
}

func TestValidateCatchesFUConflict(t *testing.T) {
	g := ir.New("fu")
	a := g.AddConst(1)
	g.AddConst(2)
	m := machine.Raw(1)
	s := New(g, m)
	s.Placements[a.ID] = Placement{Start: 0, Latency: 1}
	s.Placements[1] = Placement{Start: 0, Latency: 1}
	expectInvalid(t, s, "share cluster")
}

func TestValidateCatchesWrongLatency(t *testing.T) {
	s := handSchedule(t)
	s.Placements[0].Latency = 3
	expectInvalid(t, s, "latency")
}

func TestValidateCatchesPreplacementViolation(t *testing.T) {
	g := ir.New("pp")
	a := g.AddConst(1)
	a.Home = 1
	m := machine.Raw(2)
	s := New(g, m)
	s.Placements[0] = Placement{Cluster: 0, Start: 0, Latency: 1}
	expectInvalid(t, s, "preplaced")
}

func TestValidateCatchesIncompatibleFU(t *testing.T) {
	g := ir.New("fpu")
	f := g.AddFConst(1.0)
	g.Add(ir.FNeg, f.ID)
	m := machine.Chorus(1)
	s := New(g, m)
	fpu := m.FirstFU(ir.FAdd)
	s.Placements[0] = Placement{FU: fpu, Start: 0, Latency: 1}
	s.Placements[1] = Placement{FU: 0, Start: 1, Latency: 1} // int ALU cannot FNeg
	expectInvalid(t, s, "incompatible FU")
}

func TestValidateCatchesRawRemoteMemory(t *testing.T) {
	g := ir.New("rm")
	addr := g.AddConst(0)
	g.AddLoad(1, addr.ID)
	m := machine.Raw(2)
	s := New(g, m)
	s.Placements[0] = Placement{Cluster: 0, Start: 0, Latency: 1}
	s.Placements[1] = Placement{Cluster: 0, Start: 1, Latency: m.OpLatency(ir.Load)}
	expectInvalid(t, s, "illegal on cluster")
}

func TestValidateCatchesSendPortOverflow(t *testing.T) {
	g := ir.New("ports")
	a := g.AddConst(1)
	b := g.AddConst(2)
	g.Add(ir.Add, a.ID, b.ID)
	m := machine.Raw(2) // 1 send port per tile
	s := New(g, m)
	s.Placements[0] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[1] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Placements[2] = Placement{Cluster: 1, FU: 0, Start: 5, Latency: 1}
	s.Comms = []Comm{
		{Value: 0, From: 0, To: 1, Depart: 2, Arrive: 5},
		{Value: 1, From: 0, To: 1, Depart: 2, Arrive: 5},
	}
	// Raw(2) has RecvPorts 1 as well, so either error is acceptable;
	// check it mentions ports at all.
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted port overflow")
	}
	if !strings.Contains(err.Error(), "values at cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateCatchesXferConflict(t *testing.T) {
	g := ir.New("xferclash")
	a := g.AddConst(1)
	b := g.AddConst(2)
	g.Add(ir.Add, a.ID, b.ID)
	m := machine.Chorus(2)
	m.SendPorts = 2 // isolate the transfer-unit check from the port check
	s := New(g, m)
	ialu := 0
	s.Placements[0] = Placement{Cluster: 0, FU: ialu, Start: 0, Latency: 1}
	s.Placements[1] = Placement{Cluster: 0, FU: ialu, Start: 1, Latency: 1}
	s.Placements[2] = Placement{Cluster: 1, FU: ialu, Start: 3, Latency: 1}
	s.Comms = []Comm{
		{Value: 0, From: 0, To: 1, Depart: 2, Arrive: 3},
		{Value: 1, From: 0, To: 1, Depart: 2, Arrive: 3},
	}
	expectInvalid(t, s, "transfer unit")
}

func TestValidateCatchesMemEdgeViolation(t *testing.T) {
	g := ir.New("memv")
	addr := g.AddConst(0)
	v := g.AddConst(9)
	st := g.AddStore(0, addr.ID, v.ID)
	ld := g.AddLoad(0, addr.ID)
	g.AddMemEdge(st.ID, ld.ID)
	m := machine.Chorus(1)
	s := New(g, m)
	imem := -1
	for fu, k := range m.FUs {
		if k == machine.KindIntMem {
			imem = fu
		}
	}
	s.Placements[addr.ID] = Placement{FU: 0, Start: 0, Latency: 1}
	s.Placements[v.ID] = Placement{FU: 1, Start: 0, Latency: 1}
	s.Placements[st.ID] = Placement{FU: imem, Start: 1, Latency: 1}
	s.Placements[ld.ID] = Placement{FU: imem, Start: 1, Latency: m.OpLatency(ir.Load)}
	// Both on imem at cycle 1 also clashes; move load to cycle 1 on the
	// same FU is a double violation — separate the FU clash first.
	s.Placements[ld.ID].Start = 1
	s.Placements[st.ID].Start = 2
	// Now load at 1 precedes store completion at 3 but edge is st->ld;
	// reverse: load must come after store. With store at 2 (ready 3) and
	// load at 1, the edge is violated and FUs don't clash.
	expectInvalid(t, s, "memory edge")
}

func TestAssignmentAccessor(t *testing.T) {
	s := handSchedule(t)
	a := s.Assignment()
	if len(a) != 3 || a[0] != 0 || a[1] != 0 || a[2] != 1 {
		t.Errorf("Assignment = %v", a)
	}
}

func TestSortCommsDeterministic(t *testing.T) {
	s := handSchedule(t)
	s.Comms = append(s.Comms, Comm{Value: 0, From: 0, To: 1, Depart: 0, Arrive: 3})
	s.SortComms()
	if s.Comms[0].Depart > s.Comms[1].Depart {
		t.Error("SortComms did not order by departure")
	}
}

func TestValidateCatchesLinkCollision(t *testing.T) {
	// Two values cross the same mesh link (1->2) in the same cycle but
	// end at different tiles, so only the link check can catch it: x
	// goes 0->3 (links 0->1@2, 1->2@3, 2->3@4), y goes 1->2 (link
	// 1->2@3).
	g := ir.New("linkclash")
	a := g.AddConst(1)
	x := g.Add(ir.Neg, a.ID) // on tile 0
	y := g.Add(ir.Not, a.ID) // on tile 1
	m := Raw1x4(t)
	s := New(g, m)
	s.Placements[a.ID] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[x.ID] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Placements[y.ID] = Placement{Cluster: 1, FU: 0, Start: 1, Latency: 1}
	s.Comms = []Comm{
		{Value: x.ID, From: 0, To: 3, Depart: 2, Arrive: 2 + m.CommLatency(0, 3)},
		{Value: y.ID, From: 1, To: 2, Depart: 3, Arrive: 3 + m.CommLatency(1, 2)},
	}
	expectInvalid(t, s, "carries two words")
	// Staggering y by one cycle resolves the collision.
	s.Comms[1].Depart = 4
	s.Comms[1].Arrive = 4 + m.CommLatency(1, 2)
	if err := s.Validate(); err != nil {
		t.Fatalf("staggered comm rejected: %v", err)
	}
}

// Raw1x4 builds a 1x4 linear mesh for link-contention tests.
func Raw1x4(t *testing.T) *machine.Model {
	t.Helper()
	m, err := machine.Named("raw4")
	if err != nil {
		t.Fatal(err)
	}
	m.MeshW, m.MeshH = 4, 1
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestListschedAvoidsLinkCollision(t *testing.T) {
	// The same shape scheduled by listsched must validate (it reserves
	// links and delays one of the sends).
	g := ir.New("linkok")
	a := g.AddConst(1)
	b := g.AddConst(2)
	x := g.Add(ir.Neg, a.ID)
	y := g.Add(ir.Not, b.ID)
	g.Add(ir.Add, x.ID, y.ID)
	// Built via the exported scheduler in a sibling test package would
	// be circular; hand-check with Validate after the real scheduler
	// runs in listsched's own tests. Here we only assert the validator
	// accepts staggered departures.
	m := Raw1x4(t)
	s := New(g, m)
	s.Placements[a.ID] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[b.ID] = Placement{Cluster: 1, FU: 0, Start: 0, Latency: 1}
	s.Placements[x.ID] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Placements[y.ID] = Placement{Cluster: 1, FU: 0, Start: 1, Latency: 1}
	s.Placements[4] = Placement{Cluster: 2, FU: 0, Start: 8, Latency: 1}
	s.Comms = []Comm{
		{Value: x.ID, From: 0, To: 2, Depart: 2, Arrive: 2 + m.CommLatency(0, 2)},
		{Value: y.ID, From: 1, To: 2, Depart: 4, Arrive: 4 + m.CommLatency(1, 2)},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("staggered departures rejected: %v", err)
	}
}

func TestMaxLivePerClusterChain(t *testing.T) {
	s := handSchedule(t)
	live := s.MaxLivePerCluster()
	if len(live) != 2 {
		t.Fatalf("live = %v", live)
	}
	// Tile 0 holds the const and the neg result; tile 1 receives one
	// value.
	if live[0] < 1 || live[1] < 1 {
		t.Errorf("MaxLivePerCluster = %v", live)
	}
}

func TestStringRendersCommsAndOps(t *testing.T) {
	s := handSchedule(t)
	out := s.String()
	for _, want := range []string{"hand", "neg", "not", "snd1>1"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestLengthCountsLateArrivals(t *testing.T) {
	// A comm arriving after every placement completes extends Length.
	g := ir.New("late")
	a := g.AddConst(1)
	b := g.Add(ir.Neg, a.ID)
	m := machine.Raw(2)
	s := New(g, m)
	s.Placements[a.ID] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[b.ID] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Comms = []Comm{{Value: b.ID, From: 0, To: 1, Depart: 9, Arrive: 12}}
	if got := s.Length(); got != 12 {
		t.Errorf("Length = %d, want 12", got)
	}
}

func TestValidateCatchesNegativeStartAndBadValue(t *testing.T) {
	s := handSchedule(t)
	s.Placements[0].Start = -1
	expectInvalid(t, s, "starts at")

	s2 := handSchedule(t)
	s2.Comms[0].Value = 99
	expectInvalid(t, s2, "unknown value")
}

func TestValidateCatchesResultlessComm(t *testing.T) {
	g := ir.New("storecomm")
	a := g.AddConst(1)
	st := g.AddStore(0, a.ID, a.ID)
	m := machine.Raw(2)
	s := New(g, m)
	s.Placements[a.ID] = Placement{Cluster: 0, FU: 0, Start: 0, Latency: 1}
	s.Placements[st.ID] = Placement{Cluster: 0, FU: 0, Start: 1, Latency: 1}
	s.Comms = []Comm{{Value: st.ID, From: 0, To: 1, Depart: 2, Arrive: 5}}
	expectInvalid(t, s, "resultless")
}

func TestValidateCatchesPlacementCountMismatch(t *testing.T) {
	g := ir.New("short")
	g.AddConst(1)
	g.AddConst(2)
	m := machine.Raw(1)
	s := &Schedule{Graph: g, Machine: m, Placements: make([]Placement, 1)}
	expectInvalid(t, s, "placements for")
}

func TestValidateUsesEarliestOfDuplicateComms(t *testing.T) {
	// A second, later copy of the moved value must not hide the first,
	// whichever order the comms are listed in.
	for _, later := range []bool{false, true} {
		s := handSchedule(t)
		extra := Comm{Value: 1, From: 0, To: 1, Depart: 3, Arrive: 6}
		if later {
			s.Comms = append(s.Comms, extra)
		} else {
			s.Comms = append([]Comm{extra}, s.Comms...)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("extra comm listed later=%v: %v", later, err)
		}
		if got := s.ArrivalOn(1, 1); got != 5 {
			t.Errorf("ArrivalOn(1,1) = %d, want 5", got)
		}
	}
}

func TestValidateForgedCyclesAllocateByGraphSize(t *testing.T) {
	// Cycle values in stored, peer or forged records are untrusted: a
	// schedule pushed out to cycle 1<<40 is legal and must be checked
	// without tables sized by its cycles.
	s := handSchedule(t)
	const far = 1 << 40
	s.Placements[2].Start = far
	s.Comms[0].Depart, s.Comms[0].Arrive = far-3, far
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Validate(); err != nil {
		t.Fatalf("far-future schedule rejected: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("Validate allocated %d bytes for a 3-instruction schedule", grew)
	}
}
