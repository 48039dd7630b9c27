package sim

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/schedule"
)

// Memory is banked storage: bank → address → value. Loads of untouched
// cells return the zero Value.
type Memory map[int]map[int64]Value

// NewMemory returns empty memory.
func NewMemory() Memory { return make(Memory) }

// Load reads one cell.
func (m Memory) Load(bank int, addr int64) Value {
	if b, ok := m[bank]; ok {
		return b[addr]
	}
	return Value{}
}

// Store writes one cell.
func (m Memory) Store(bank int, addr int64, v Value) {
	b, ok := m[bank]
	if !ok {
		b = make(map[int64]Value)
		m[bank] = b
	}
	b[addr] = v
}

// Clone deep-copies the memory.
func (m Memory) Clone() Memory {
	out := NewMemory()
	for bank, cells := range m {
		nb := make(map[int64]Value, len(cells))
		for a, v := range cells {
			nb[a] = v
		}
		out[bank] = nb
	}
	return out
}

// Equal reports whether two memories hold identical non-zero contents.
// Cells holding the zero Value compare equal to absent cells.
func (m Memory) Equal(o Memory) bool {
	covered := func(a, b Memory) bool {
		for bank, cells := range a {
			for addr, v := range cells {
				if v == (Value{}) {
					continue
				}
				if !b.Load(bank, addr).Equal(v) {
					return false
				}
			}
		}
		return true
	}
	return covered(m, o) && covered(o, m)
}

// Result captures one execution.
type Result struct {
	// Values holds the result of every instruction by ID; Stores and
	// Nops hold the zero Value.
	Values []Value
	// Memory is the final memory state.
	Memory Memory
	// Cycles is the schedule length (zero for reference execution).
	Cycles int
}

func execOne(g *ir.Graph, i int, values []Value, mem Memory) (Value, error) {
	in := g.Instrs[i]
	args := make([]Value, len(in.Args))
	for k, a := range in.Args {
		args[k] = values[a]
	}
	switch in.Op {
	case ir.Nop:
		return Value{}, nil
	case ir.Load:
		return mem.Load(in.Bank, args[0].AsInt()), nil
	case ir.Store:
		mem.Store(in.Bank, args[0].AsInt(), args[1])
		return Value{}, nil
	default:
		return Eval(in, args), nil
	}
}

// Reference executes the graph sequentially in ID order (a topological
// order by construction) against a copy of the initial memory. This defines
// the semantics every schedule must reproduce.
func Reference(g *ir.Graph, initial Memory) (*Result, error) {
	g.Seal()
	mem := initial.Clone()
	values := make([]Value, g.Len())
	for i := range g.Instrs {
		v, err := execOne(g, i, values, mem)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	return &Result{Values: values, Memory: mem}, nil
}

// Run validates the schedule and then executes it in schedule order: all
// instructions sorted by issue cycle (clusters are lockstep, so issue order
// is the architectural order; memory ops issuing in the same cycle on the
// same bank would be a race, which validation prevents via memory-order
// edges when the generator declares a conflict). The result must match
// Reference for the same initial memory; Verify packages that comparison.
func Run(s *schedule.Schedule, initial Memory) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}
	return execute(s, initial)
}

// execute is Run without the validation, for a schedule already validated.
func execute(s *schedule.Schedule, initial Memory) (*Result, error) {
	g := s.Graph
	order := make([]int, g.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := s.Placements[order[a]], s.Placements[order[b]]
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		return order[a] < order[b]
	})
	mem := initial.Clone()
	values := make([]Value, g.Len())
	done := make([]bool, g.Len())
	for _, i := range order {
		for _, a := range g.Instrs[i].Args {
			if !done[a] {
				return nil, fmt.Errorf("sim: instruction %d executed before operand %%%d", i, a)
			}
		}
		v, err := execOne(g, i, values, mem)
		if err != nil {
			return nil, err
		}
		values[i] = v
		done[i] = true
	}
	return &Result{Values: values, Memory: mem, Cycles: s.Length()}, nil
}

// Verify runs the schedule and checks it against reference execution,
// returning the schedule's result on success and a diagnostic error on the
// first divergence.
func Verify(s *schedule.Schedule, initial Memory) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid schedule: %w", err)
	}
	return verify(s, initial)
}

// Gate is the legality gate in front of every schedule the system serves or
// certifies: it validates s once and, when simulate is set, checks its
// execution against reference execution from initial (empty memory when
// nil) without validating again. Validate's refusal is returned as invalid,
// the simulation's as diverged.
func Gate(s *schedule.Schedule, simulate bool, initial Memory) (invalid, diverged error) {
	if err := s.Validate(); err != nil || !simulate {
		return err, nil
	}
	if initial == nil {
		initial = NewMemory()
	}
	_, err := verify(s, initial)
	return nil, err
}

// verify is Verify for a schedule already validated.
func verify(s *schedule.Schedule, initial Memory) (*Result, error) {
	want, err := Reference(s.Graph, initial)
	if err != nil {
		return nil, err
	}
	got, err := execute(s, initial)
	if err != nil {
		return nil, err
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) {
			return nil, fmt.Errorf("sim: instruction %d computed %v, reference %v", i, got.Values[i], want.Values[i])
		}
	}
	if !got.Memory.Equal(want.Memory) {
		return nil, fmt.Errorf("sim: final memory diverges from reference")
	}
	return got, nil
}
