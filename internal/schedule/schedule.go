// Package schedule defines the space-time schedule produced by every
// scheduler in this repository, and an independent validator that checks a
// schedule's legality against the dependence graph and machine model.
//
// Both Raw and the clustered VLIW are statically scheduled, lockstep
// machines: all clusters share a cycle counter, so a schedule is simply an
// assignment of each instruction to (cluster, functional unit, issue cycle)
// plus a set of explicit communication operations that move register values
// between clusters. Communication occupies the endpoints (send and receive
// ports, and the transfer unit on VLIW machines) and, on mesh machines,
// every link of the dimension-ordered route, one hop per cycle.
package schedule

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Placement locates one instruction in space and time.
type Placement struct {
	// Cluster is the executing cluster (home tile for Raw memory ops).
	Cluster int
	// FU is the functional-unit index within the cluster.
	FU int
	// Start is the issue cycle.
	Start int
	// Latency is the cycles until the result is usable on the same
	// cluster, including any remote-memory penalty.
	Latency int
}

// Ready returns the first cycle at which the result is usable on the
// producing cluster.
func (p Placement) Ready() int { return p.Start + p.Latency }

// Fingerprint returns a hex-encoded content hash of the schedule: every
// placement field in instruction order, every comm in list order, and the
// comm count. Two schedules have equal fingerprints exactly when their
// placements and comm lists are byte-identical, which is what the
// differential harnesses compare across scheduler paths.
func (s *Schedule) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	wr := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wr(len(s.Placements))
	for _, p := range s.Placements {
		wr(p.Cluster)
		wr(p.FU)
		wr(p.Start)
		wr(p.Latency)
	}
	wr(len(s.Comms))
	for _, c := range s.Comms {
		wr(c.Value)
		wr(c.From)
		wr(c.To)
		wr(c.Depart)
		wr(c.Arrive)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Comm is one inter-cluster move of a register value.
type Comm struct {
	// Value is the ID of the producing instruction.
	Value int
	// From and To are the source and destination clusters.
	From, To int
	// Depart is the cycle the value leaves From. It occupies one send
	// port on From (and the transfer unit, if the machine has one).
	Depart int
	// Arrive is the cycle the value becomes usable on To; it occupies
	// one receive port on To.
	Arrive int
}

// Schedule is a complete space-time schedule for one graph on one machine.
type Schedule struct {
	Graph   *ir.Graph
	Machine *machine.Model
	// Placements is indexed by instruction ID.
	Placements []Placement
	// Comms lists every inter-cluster value move.
	Comms []Comm
}

// New returns an empty schedule shell for the given graph and machine.
func New(g *ir.Graph, m *machine.Model) *Schedule {
	return &Schedule{
		Graph:      g,
		Machine:    m,
		Placements: make([]Placement, g.Len()),
	}
}

// Length returns the schedule makespan in cycles: the first cycle by which
// every result has been produced and every communication has arrived. An
// empty schedule has length zero.
func (s *Schedule) Length() int {
	max := 0
	for i := range s.Placements {
		if r := s.Placements[i].Ready(); r > max {
			max = r
		}
	}
	for _, c := range s.Comms {
		if c.Arrive > max {
			max = c.Arrive
		}
	}
	return max
}

// Assignment returns the cluster of every instruction, indexed by ID.
func (s *Schedule) Assignment() []int {
	out := make([]int, len(s.Placements))
	for i := range s.Placements {
		out[i] = s.Placements[i].Cluster
	}
	return out
}

// ArrivalOn returns the first cycle the value produced by instruction v is
// usable on the given cluster, or -1 if it never arrives there. The
// producing cluster counts as arrival at result-ready time.
//
// Constants follow the immediate-broadcast rule: real ISAs encode constant
// operands as immediates inside the consuming instruction, so a constant
// never moves through the network — it is usable on every cluster as soon
// as it is materialised. All schedulers in this repository share this rule.
func (s *Schedule) ArrivalOn(v, cluster int) int {
	p := s.Placements[v]
	if p.Cluster == cluster || s.Graph.Instrs[v].Op.IsConst() {
		return p.Ready()
	}
	best := -1
	for _, c := range s.Comms {
		if c.Value == v && c.To == cluster && (best < 0 || c.Arrive < best) {
			best = c.Arrive
		}
	}
	return best
}

// CommCount returns the number of communication operations.
func (s *Schedule) CommCount() int { return len(s.Comms) }

// Validate checks the schedule's complete legality:
//
//   - every placement is in range, on a functional unit that can issue the
//     opcode, with the correct latency for its cluster;
//   - preplaced instructions sit on their home clusters, and memory
//     operations obey the machine's locality rule;
//   - no functional unit issues two operations in one cycle (communication
//     occupies the transfer unit on machines that have one);
//   - send/receive port capacities are never exceeded;
//   - every communication departs no earlier than its value is ready on its
//     source cluster, with the exact machine latency;
//   - every data operand has arrived on the consumer's cluster by its issue
//     cycle, and memory-order edges are respected in lockstep time.
//
// It returns the first violation found, or nil.
func (s *Schedule) Validate() error {
	g, m := s.Graph, s.Machine
	if len(s.Placements) != g.Len() {
		return fmt.Errorf("schedule: %d placements for %d instructions", len(s.Placements), g.Len())
	}
	// Placement sanity.
	for i, p := range s.Placements {
		in := g.Instrs[i]
		if p.Cluster < 0 || p.Cluster >= m.NumClusters {
			return fmt.Errorf("schedule: instr %d on cluster %d of %d", i, p.Cluster, m.NumClusters)
		}
		if p.Start < 0 {
			return fmt.Errorf("schedule: instr %d starts at %d", i, p.Start)
		}
		if !m.CanRunOn(in.Op, p.FU) {
			return fmt.Errorf("schedule: instr %d (%v) on incompatible FU %d", i, in.Op, p.FU)
		}
		want, ok := m.InstrLatency(in, p.Cluster)
		if !ok {
			return fmt.Errorf("schedule: instr %d (%v bank %d) illegal on cluster %d", i, in.Op, in.Bank, p.Cluster)
		}
		if p.Latency != want {
			return fmt.Errorf("schedule: instr %d latency %d, want %d", i, p.Latency, want)
		}
		if in.Preplaced() && p.Cluster != in.Home {
			return fmt.Errorf("schedule: preplaced instr %d on cluster %d, home %d", i, p.Cluster, in.Home)
		}
	}
	// FU occupancy, including transfer-unit use by communications.
	type fuSlot struct{ cluster, fu, cycle int }
	fuBusy := make(map[fuSlot]int, len(s.Placements)+len(s.Comms))
	for i, p := range s.Placements {
		key := fuSlot{p.Cluster, p.FU, p.Start}
		if prev, clash := fuBusy[key]; clash {
			return fmt.Errorf("schedule: instrs %d and %d share cluster %d FU %d at cycle %d", prev, i, p.Cluster, p.FU, p.Start)
		}
		fuBusy[key] = i
	}
	xfer := m.XferFU()
	// Port occupancy and communication legality.
	type portSlot struct{ cluster, cycle int }
	sendUse := make(map[portSlot]int, len(s.Comms))
	recvUse := make(map[portSlot]int, len(s.Comms))
	for ci, c := range s.Comms {
		if c.Value < 0 || c.Value >= g.Len() {
			return fmt.Errorf("schedule: comm %d moves unknown value %d", ci, c.Value)
		}
		if !g.Instrs[c.Value].Op.HasResult() {
			return fmt.Errorf("schedule: comm %d moves resultless instr %d", ci, c.Value)
		}
		p := s.Placements[c.Value]
		if c.From != p.Cluster {
			return fmt.Errorf("schedule: comm %d departs cluster %d but value %d lives on %d", ci, c.From, c.Value, p.Cluster)
		}
		if c.From == c.To {
			return fmt.Errorf("schedule: comm %d from cluster %d to itself", ci, c.From)
		}
		if c.Depart < p.Ready() {
			return fmt.Errorf("schedule: comm %d departs at %d before value %d ready at %d", ci, c.Depart, c.Value, p.Ready())
		}
		if want := c.Depart + m.CommLatency(c.From, c.To); c.Arrive != want {
			return fmt.Errorf("schedule: comm %d arrives at %d, want %d", ci, c.Arrive, want)
		}
		sendUse[portSlot{c.From, c.Depart}]++
		recvUse[portSlot{c.To, c.Arrive}]++
		if xfer >= 0 {
			key := fuSlot{c.From, xfer, c.Depart}
			if prev, clash := fuBusy[key]; clash {
				return fmt.Errorf("schedule: comm %d and op %d share transfer unit on cluster %d at cycle %d", ci, prev, c.From, c.Depart)
			}
			fuBusy[key] = -1 - ci
		}
	}
	for slot, n := range sendUse {
		if n > m.SendPorts {
			return fmt.Errorf("schedule: cluster %d sends %d values at cycle %d (limit %d)", slot.cluster, n, slot.cycle, m.SendPorts)
		}
	}
	for slot, n := range recvUse {
		if n > m.RecvPorts {
			return fmt.Errorf("schedule: cluster %d receives %d values at cycle %d (limit %d)", slot.cluster, n, slot.cycle, m.RecvPorts)
		}
	}
	// Link-level occupancy on mesh machines: a communication's head word
	// crosses link i of its dimension-ordered route at cycle Depart+i,
	// and each link carries one word per cycle.
	if m.LinkLevel() {
		type linkSlot struct {
			link  machine.Link
			cycle int
		}
		linkUse := make(map[linkSlot]int, len(s.Comms))
		for ci, c := range s.Comms {
			for hop, l := range m.Route(c.From, c.To) {
				key := linkSlot{l, c.Depart + hop}
				linkUse[key]++
				if linkUse[key] > 1 {
					return fmt.Errorf("schedule: comm %d: link %d->%d carries two words at cycle %d",
						ci, l.From, l.To, c.Depart+hop)
				}
			}
		}
	}
	// Dependence timing. The earliest arrival of every (value, cluster)
	// is folded over the comms once, with ArrivalOn's rule, so checking
	// an operand is a lookup. The table is sized by the graph, not by
	// cycle values, which are untrusted here; the occupancy checks above
	// keep their maps for the same reason.
	nc := m.NumClusters
	arrival := make([]int, g.Len()*nc)
	for k := range arrival {
		arrival[k] = -1
	}
	for _, c := range s.Comms {
		if c.To < 0 || c.To >= nc {
			continue // no consumer runs there
		}
		if k := c.Value*nc + c.To; arrival[k] < 0 || c.Arrive < arrival[k] {
			arrival[k] = c.Arrive
		}
	}
	for i := range g.Instrs {
		p := s.Placements[i]
		for _, a := range g.Instrs[i].Args {
			arr := arrival[a*nc+p.Cluster]
			if pa := s.Placements[a]; pa.Cluster == p.Cluster || g.Instrs[a].Op.IsConst() {
				arr = pa.Ready()
			}
			if arr < 0 {
				return fmt.Errorf("schedule: operand %%%d of instr %d never arrives on cluster %d", a, i, p.Cluster)
			}
			if arr > p.Start {
				return fmt.Errorf("schedule: instr %d issues at %d before operand %%%d arrives at %d", i, p.Start, a, arr)
			}
		}
	}
	for _, e := range g.MemEdges() {
		pre, post := s.Placements[e[0]], s.Placements[e[1]]
		if post.Start < pre.Ready() {
			return fmt.Errorf("schedule: memory edge (%d,%d) violated: %d issues at %d before %d completes at %d",
				e[0], e[1], e[1], post.Start, e[0], pre.Ready())
		}
	}
	return nil
}

// MaxLivePerCluster estimates register pressure: for each cluster, the
// maximum number of values simultaneously live there. A value is live on a
// cluster from its arrival until its last local use (issue of a consumer or
// departure of a communication). Values with no local consumers are live for
// one cycle.
func (s *Schedule) MaxLivePerCluster() []int {
	type span struct{ from, to int }
	live := make([]map[int]span, s.Machine.NumClusters)
	for c := range live {
		live[c] = make(map[int]span)
	}
	note := func(cluster, value, at int) {
		sp, ok := live[cluster][value]
		if !ok {
			arr := s.ArrivalOn(value, cluster)
			sp = span{from: arr, to: arr}
		}
		if at > sp.to {
			sp.to = at
		}
		live[cluster][value] = sp
	}
	for i, p := range s.Placements {
		if s.Graph.Instrs[i].Op.HasResult() {
			note(p.Cluster, i, p.Ready())
		}
		for _, a := range s.Graph.Instrs[i].Args {
			note(p.Cluster, a, p.Start)
		}
	}
	for _, c := range s.Comms {
		note(c.From, c.Value, c.Depart)
	}
	out := make([]int, s.Machine.NumClusters)
	length := s.Length()
	for c := range live {
		counts := make([]int, length+2)
		for _, sp := range live[c] {
			if sp.from < 0 {
				continue
			}
			for t := sp.from; t <= sp.to && t < len(counts); t++ {
				counts[t]++
			}
		}
		for _, n := range counts {
			if n > out[c] {
				out[c] = n
			}
		}
	}
	return out
}

// String renders the schedule as a per-cluster timeline, one row per cycle.
func (s *Schedule) String() string {
	length := s.Length()
	rows := make([][]string, length+1)
	for t := range rows {
		rows[t] = make([]string, s.Machine.NumClusters)
	}
	for i, p := range s.Placements {
		cell := fmt.Sprintf("%d:%v", i, s.Graph.Instrs[i].Op)
		if rows[p.Start][p.Cluster] != "" {
			cell = rows[p.Start][p.Cluster] + " " + cell
		}
		rows[p.Start][p.Cluster] = cell
	}
	for _, c := range s.Comms {
		cell := fmt.Sprintf("snd%d>%d", c.Value, c.To)
		if rows[c.Depart][c.From] != "" {
			cell = rows[c.Depart][c.From] + " " + cell
		}
		rows[c.Depart][c.From] = cell
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s on %s: %d cycles, %d comms\n", s.Graph.Name, s.Machine.Name, length, len(s.Comms))
	width := make([]int, s.Machine.NumClusters)
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > width[c] {
				width[c] = len(cell)
			}
		}
	}
	for t, row := range rows {
		empty := true
		for _, cell := range row {
			if cell != "" {
				empty = false
			}
		}
		if empty {
			continue
		}
		fmt.Fprintf(&b, "%4d |", t)
		for c, cell := range row {
			fmt.Fprintf(&b, " %-*s |", width[c], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortComms orders communications by (Depart, Value, To) for deterministic
// output; validation does not depend on order.
func (s *Schedule) SortComms() {
	sort.Slice(s.Comms, func(i, j int) bool {
		a, b := s.Comms[i], s.Comms[j]
		if a.Depart != b.Depart {
			return a.Depart < b.Depart
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.To < b.To
	})
}
