// Package listsched implements the cycle-driven list scheduler shared by
// every back-end: given a cluster assignment and an instruction priority, it
// produces a legal space-time schedule with communication operations
// inserted on demand. The resource-reservation machinery (Tables) is
// exported so that schedulers which choose clusters during scheduling (UAS)
// can reuse the exact same occupancy model.
package listsched

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Tables tracks resource reservations and value arrivals while a schedule is
// being built. All schedulers in this repository build schedules through
// Tables, so they compete under identical rules.
//
// Every reservation table is a grow-only row indexed by cycle, one row per
// resource, so a probe costs an index instead of a hash. Reservations are
// only ever added, never released: a cycle found blocked stays blocked,
// which is what makes the per-route probe floor (see routeSlot) exact.
type Tables struct {
	g *ir.Graph
	m *machine.Model

	sched *schedule.Schedule

	nc, nfu  int
	placed   []bool
	memStart []int // memPreds[memStart[i]:memStart[i+1]] are i's memory predecessors
	memPreds []int

	// arrival[v*nc+c] is the first cycle value v is usable on cluster c,
	// or -1 when it is not there yet.
	arrival []int
	// floor[v*nc+c] is the departure the last route search for v to c
	// found; no earlier departure can become free again.
	floor []int

	fuBusy []bitRow // cluster*nfu+fu
	send   [][]int  // cluster -> sends per cycle
	recv   [][]int  // cluster -> receives per cycle
	links  []bitRow // link.From*nc+link.To
	xfer   int
}

// bitRow is a grow-only occupancy bitset indexed by cycle.
type bitRow []uint64

func (b bitRow) has(cycle int) bool {
	w := uint(cycle) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(cycle)&63)) != 0
}

func (b *bitRow) set(cycle int) {
	w := cycle >> 6
	*b = grow(*b, w)
	(*b)[w] |= 1 << (uint(cycle) & 63)
}

// grow extends s with zeros so that index i is valid.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// at returns row[i], or zero past the end of the row.
func at(row []int, i int) int {
	if i < len(row) {
		return row[i]
	}
	return 0
}

// NewTables returns empty reservation tables building a schedule for g on m.
func NewTables(g *ir.Graph, m *machine.Model) *Tables {
	g.Seal()
	n, nc, nfu := g.Len(), m.NumClusters, len(m.FUs)
	t := &Tables{
		g:        g,
		m:        m,
		sched:    schedule.New(g, m),
		nc:       nc,
		nfu:      nfu,
		placed:   make([]bool, n),
		memStart: make([]int, n+1),
		arrival:  make([]int, n*nc),
		floor:    make([]int, n*nc),
		fuBusy:   make([]bitRow, nc*nfu),
		send:     make([][]int, nc),
		recv:     make([][]int, nc),
		links:    make([]bitRow, nc*nc),
		xfer:     m.XferFU(),
	}
	for i := range t.arrival {
		t.arrival[i] = -1
	}
	// Memory-predecessor index, bucketed by successor.
	edges := g.MemEdges()
	for _, e := range edges {
		t.memStart[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		t.memStart[i+1] += t.memStart[i]
	}
	t.memPreds = make([]int, len(edges))
	fill := append([]int(nil), t.memStart[:n]...)
	for _, e := range edges {
		t.memPreds[fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return t
}

// Schedule returns the schedule under construction. Callers must not mutate
// it directly; it is complete once every instruction is placed.
func (t *Tables) Schedule() *schedule.Schedule { return t.sched }

// Placed reports whether instruction i has been placed.
func (t *Tables) Placed(i int) bool { return t.placed[i] }

// PlacedCount returns how many instructions have been placed.
func (t *Tables) PlacedCount() int {
	n := 0
	for _, p := range t.placed {
		if p {
			n++
		}
	}
	return n
}

// FUFree reports whether the functional unit is unreserved at the cycle.
func (t *Tables) FUFree(cluster, fu, cycle int) bool {
	if cluster < 0 || cluster >= t.nc || fu < 0 || fu >= t.nfu {
		return true
	}
	return !t.fuBusy[cluster*t.nfu+fu].has(cycle)
}

// FindFU returns a free functional unit on the cluster able to issue the
// opcode at the cycle, or -1.
func (t *Tables) FindFU(op ir.Op, cluster, cycle int) int {
	for fu := range t.m.FUs {
		if t.m.CanRunOn(op, fu) && t.FUFree(cluster, fu, cycle) {
			return fu
		}
	}
	return -1
}

// Place commits instruction i to (cluster, fu, start). It panics on
// resource conflicts or illegal placements (including an out-of-range
// cluster or unit, or a negative cycle): callers are expected to have
// checked with FindFU/OperandsArriveBy first, so a violation is a scheduler
// bug, not an input error.
func (t *Tables) Place(i, cluster, fu, start int) {
	if t.placed[i] {
		panic(fmt.Sprintf("listsched: instruction %d placed twice", i))
	}
	in := t.g.Instrs[i]
	lat, ok := t.m.InstrLatency(in, cluster)
	if !ok || cluster < 0 || cluster >= t.nc || fu < 0 || fu >= t.nfu || start < 0 {
		panic(fmt.Sprintf("listsched: instruction %d illegal on cluster %d fu %d cycle %d", i, cluster, fu, start))
	}
	row := &t.fuBusy[cluster*t.nfu+fu]
	if row.has(start) {
		panic(fmt.Sprintf("listsched: FU conflict placing %d on cluster %d fu %d cycle %d", i, cluster, fu, start))
	}
	row.set(start)
	t.placed[i] = true
	t.sched.Placements[i] = schedule.Placement{Cluster: cluster, FU: fu, Start: start, Latency: lat}
	if in.Op.HasResult() {
		t.noteArrival(i, cluster, start+lat)
	}
}

func (t *Tables) noteArrival(v, cluster, cycle int) {
	if k := v*t.nc + cluster; t.arrival[k] < 0 || cycle < t.arrival[k] {
		t.arrival[k] = cycle
	}
}

// Arrival returns the first cycle value v is usable on the cluster, or -1
// if it is not there and no communication has been scheduled. Constants
// follow the immediate-broadcast rule (see schedule.ArrivalOn): once
// materialised they are usable everywhere.
func (t *Tables) Arrival(v, cluster int) int {
	if t.placed[v] && t.g.Instrs[v].Op.IsConst() {
		return t.ReadyOnHome(v)
	}
	if cluster < 0 || cluster >= t.nc {
		return -1
	}
	return t.arrival[v*t.nc+cluster]
}

// ReadyOnHome returns the cycle value v is ready on its producing cluster.
// v must already be placed.
func (t *Tables) ReadyOnHome(v int) int {
	return t.sched.Placements[v].Ready()
}

// routeSlot finds the earliest departure for value v to the cluster such
// that the send port, the transfer unit (if any), every link of the
// dimension-ordered route and the receive port are all free, and returns
// the source cluster with the departure and arrival cycles.
//
// The search starts at the later of v's ready cycle and the departure the
// previous search for the same route found. That floor is exact: v must be
// placed, the source, ready cycle and route of a placed value never change,
// and Tables never releases a reservation, so every cycle the previous
// search skipped is still blocked.
func (t *Tables) routeSlot(v, dst int) (src, depart, arrive int) {
	src = t.sched.Placements[v].Cluster
	from := t.ReadyOnHome(v)
	k := v*t.nc + dst
	if t.floor[k] > from {
		from = t.floor[k]
	}
	lat := t.m.CommLatency(src, dst)
	route := t.m.Route(src, dst)
	send, recv := t.send[src], t.recv[dst]
	var xfer bitRow
	if t.xfer >= 0 {
		xfer = t.fuBusy[src*t.nfu+t.xfer]
	}
search:
	for d := from; ; d++ {
		if at(send, d) >= t.m.SendPorts || xfer.has(d) || at(recv, d+lat) >= t.m.RecvPorts {
			continue
		}
		for hop, l := range route {
			if t.links[l.From*t.nc+l.To].has(d + hop) {
				continue search
			}
		}
		t.floor[k] = d
		return src, d, d + lat
	}
}

// ProbeRoute returns the arrival cycle value v would have on the cluster if
// a communication were scheduled now, without reserving anything. If the
// value is already available there it returns the existing arrival.
// v must be placed.
func (t *Tables) ProbeRoute(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	_, _, arrive := t.routeSlot(v, cluster)
	return arrive
}

// Route ensures value v will be usable on the cluster, scheduling a
// communication at the earliest feasible departure if needed, and returns
// the arrival cycle. v must be placed. Constants are never routed
// (immediate-broadcast rule).
func (t *Tables) Route(v, cluster int) int {
	if a := t.Arrival(v, cluster); a >= 0 {
		return a
	}
	if !t.placed[v] {
		panic(fmt.Sprintf("listsched: routing unplaced value %d", v))
	}
	src, depart, arrive := t.routeSlot(v, cluster)
	t.send[src] = grow(t.send[src], depart)
	t.send[src][depart]++
	t.recv[cluster] = grow(t.recv[cluster], arrive)
	t.recv[cluster][arrive]++
	for hop, l := range t.m.Route(src, cluster) {
		t.links[l.From*t.nc+l.To].set(depart + hop)
	}
	if t.xfer >= 0 {
		t.fuBusy[src*t.nfu+t.xfer].set(depart)
	}
	t.sched.Comms = append(t.sched.Comms, schedule.Comm{Value: v, From: src, To: cluster, Depart: depart, Arrive: arrive})
	t.noteArrival(v, cluster, arrive)
	return arrive
}

// EarliestStart returns the first cycle instruction i could issue on the
// cluster given current arrivals, routing remote operands eagerly (commit
// controls whether routes are reserved or only probed). All of i's
// predecessors must be placed.
func (t *Tables) EarliestStart(i, cluster int, commit bool) int {
	est := 0
	in := t.g.Instrs[i]
	for _, a := range in.Args {
		var arr int
		if commit {
			arr = t.Route(a, cluster)
		} else {
			arr = t.ProbeRoute(a, cluster)
		}
		if arr > est {
			est = arr
		}
	}
	// Memory-order predecessors impose lockstep completion ordering but
	// move no value.
	for _, p := range t.memPreds[t.memStart[i]:t.memStart[i+1]] {
		if r := t.ReadyOnHome(p); r > est {
			est = r
		}
	}
	return est
}
