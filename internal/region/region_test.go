package region

import (
	"context"
	"strings"
	"testing"

	"repro/internal/baseline/uas"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
)

// sumLoop builds: sum = Σ_{i=1}^{10} i, then result = sum*3.
//
//	b0: i=1; sum=0            -> jump b1
//	b1: sum+=i; i+=1; c=i<11  -> branch c ? b1 : b2
//	b2: result = sum*3        -> return
func sumLoop() (*Fn, VarID) {
	f := NewFn("sumloop")
	i := f.Var("i")
	sum := f.Var("sum")
	one := f.Var("one")
	limit := f.Var("limit")
	c := f.Var("c")
	three := f.Var("three")
	result := f.Var("result")

	b0 := f.Blocks[0]
	b1 := f.NewBlock()
	b2 := f.NewBlock()

	b0.EmitConst(one, 1)
	b0.EmitConst(limit, 11)
	b0.EmitConst(i, 1)
	b0.EmitConst(sum, 0)
	b0.Jump(b1.ID)

	b1.Emit(sum, ir.Add, sum, i)
	b1.Emit(i, ir.Add, i, one)
	b1.Emit(c, ir.Slt, i, limit)
	b1.Branch(c, b1.ID, b2.ID)

	b2.EmitConst(three, 3)
	b2.Emit(result, ir.Mul, sum, three)
	b2.Ret()
	f.Output(result)
	return f, result
}

// diamond builds an if/else joining into a common block.
func diamond() *Fn {
	f := NewFn("diamond")
	x := f.Var("x")
	c := f.Var("c")
	y := f.Var("y")

	b0 := f.Blocks[0]
	bThen := f.NewBlock()
	bElse := f.NewBlock()
	bJoin := f.NewBlock()

	b0.EmitConst(x, 7)
	b0.Emit(c, ir.Slt, x, x) // 0: always take else
	b0.Branch(c, bThen.ID, bElse.ID)

	bThen.Emit(y, ir.Add, x, x)
	bThen.Jump(bJoin.ID)

	bElse.Emit(y, ir.Mul, x, x)
	bElse.Jump(bJoin.ID)

	bJoin.Emit(y, ir.Neg, y)
	bJoin.Ret()
	f.Output(y)
	return f
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	f := NewFn("bad")
	v := f.Var("v")
	f.Blocks[0].Emit(v, ir.Add, v, VarID(9)) // out-of-range arg
	if err := f.Validate(); err == nil {
		t.Error("accepted out-of-range variable")
	}
	f2 := NewFn("bad2")
	f2.Blocks[0].Jump(5)
	if err := f2.Validate(); err == nil {
		t.Error("accepted out-of-range target")
	}
	f3 := NewFn("bad3")
	w := f3.Var("w")
	f3.Blocks[0].Code = append(f3.Blocks[0].Code, Stmt{Dst: w, Op: ir.Store, Args: []VarID{w, w}})
	if err := f3.Validate(); err == nil {
		t.Error("accepted memory op at region level")
	}
}

func TestInterpretSumLoop(t *testing.T) {
	f, result := sumLoop()
	vars, runs, err := f.Interpret(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := vars[result].AsInt(); got != 165 { // 55*3
		t.Errorf("result = %d, want 165", got)
	}
	if runs[1] != 10 {
		t.Errorf("loop body ran %d times, want 10", runs[1])
	}
}

func TestInterpretInfiniteLoopBounded(t *testing.T) {
	f := NewFn("spin")
	f.Blocks[0].Jump(0)
	if _, _, err := f.Interpret(50); err == nil {
		t.Error("unbounded loop did not error")
	}
}

func TestLivenessLoop(t *testing.T) {
	f, _ := sumLoop()
	liveIn, liveOut := f.Liveness()
	// i, sum, one, limit are live around the loop (block 1).
	for _, v := range []VarID{0, 1, 2, 3} {
		if !liveIn[1][v] {
			t.Errorf("var %d not live into loop body", v)
		}
	}
	// sum is live out of the loop (used by b2); three is local to b2.
	if !liveOut[1][1] {
		t.Error("sum not live out of loop body")
	}
	if liveIn[2][5] {
		t.Error("three live into b2 despite being defined there")
	}
}

func TestTracesFollowHotPath(t *testing.T) {
	f, _ := sumLoop()
	if err := f.SetProfile(100); err != nil {
		t.Fatal(err)
	}
	traces := f.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	// The hottest trace is seeded at the loop body (count 10) and may
	// grow to absorb the straightline pre/post blocks.
	if traces[0].Count != 10 {
		t.Errorf("hottest trace = %+v", traces[0])
	}
	hasLoop := false
	for _, b := range traces[0].Blocks {
		if b == 1 {
			hasLoop = true
		}
	}
	if !hasLoop {
		t.Errorf("hottest trace %v does not contain the loop body", traces[0].Blocks)
	}
	// Every block in exactly one trace.
	seen := map[int]bool{}
	total := 0
	for _, tr := range traces {
		for _, b := range tr.Blocks {
			if seen[b] {
				t.Errorf("block %d in two traces", b)
			}
			seen[b] = true
			total++
		}
	}
	if total != len(f.Blocks) {
		t.Errorf("traces cover %d of %d blocks", total, len(f.Blocks))
	}
}

func TestTracesChainStraightline(t *testing.T) {
	// b0 -> b1 -> b2 with equal counts must form one trace.
	f := NewFn("straight")
	v := f.Var("v")
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	f.Blocks[0].EmitConst(v, 1)
	f.Blocks[0].Jump(b1.ID)
	b1.Emit(v, ir.Neg, v)
	b1.Jump(b2.ID)
	b2.Emit(v, ir.Neg, v)
	b2.Ret()
	for _, b := range f.Blocks {
		b.Count = 5
	}
	traces := f.Traces()
	if len(traces) != 1 || len(traces[0].Blocks) != 3 {
		t.Errorf("traces = %+v, want one trace of three blocks", traces)
	}
}

func TestPlanLayoutPolicies(t *testing.T) {
	f, _ := sumLoop()
	m := machine.Raw(4)
	first := f.PlanLayout(m, FirstCluster)
	for v, h := range first.Home {
		if first.CrossBlock[v] && h != 0 {
			t.Errorf("FirstCluster put var %d on bank %d", v, h)
		}
		if !first.CrossBlock[v] && h != -1 {
			t.Errorf("local var %d got a home", v)
		}
	}
	rr := f.PlanLayout(m, RoundRobin)
	banks := map[int]bool{}
	for v, h := range rr.Home {
		if rr.CrossBlock[v] {
			banks[h] = true
		}
	}
	if len(banks) < 2 {
		t.Errorf("RoundRobin used banks %v, expected spread", banks)
	}
}

func TestLowerBlockPreplacesVarCells(t *testing.T) {
	f, _ := sumLoop()
	m := machine.Raw(4)
	l := f.PlanLayout(m, RoundRobin)
	g, err := f.LowerBlock(1, m, l)
	if err != nil {
		t.Fatal(err)
	}
	loads, stores := 0, 0
	for _, in := range g.Instrs {
		switch in.Op {
		case ir.Load:
			loads++
			if !in.Preplaced() {
				t.Errorf("var load %q not preplaced", in.Name)
			}
		case ir.Store:
			stores++
			if !in.Preplaced() {
				t.Errorf("var store %q not preplaced", in.Name)
			}
		}
	}
	// Block 1 reads i, sum, one, limit (4 loads) and stores sum, i, c.
	if loads != 4 || stores != 3 {
		t.Errorf("loads=%d stores=%d, want 4 and 3\n%s", loads, stores, g.DOT())
	}
	// The load and store of a redefined variable must be ordered.
	if len(g.MemEdges()) == 0 {
		t.Error("no anti-dependence edges for redefined variables")
	}
}

func listScheduler(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
	assign := make([]int, g.Len())
	for i, in := range g.Instrs {
		if in.Preplaced() {
			assign[i] = in.Home
		}
	}
	return listsched.Run(g, m, listsched.Options{Assignment: assign})
}

func TestCompileAndVerifySumLoop(t *testing.T) {
	f, result := sumLoop()
	m := machine.Raw(4)
	for _, policy := range []HomePolicy{FirstCluster, RoundRobin} {
		c, err := Compile(f, m, policy, listScheduler)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := c.VerifyAgainstInterpreter(200)
		if err != nil {
			t.Fatal(err)
		}
		got := ex.Memory.Load(c.Layout.Home[result], c.Layout.Addr(result))
		if got.AsInt() != 165 {
			t.Errorf("policy %d: result cell = %v, want 165", policy, got)
		}
		if ex.Cycles <= 0 {
			t.Error("no cycles accounted")
		}
	}
}

func TestCompileDiamondTakesElse(t *testing.T) {
	f := diamond()
	m := machine.Chorus(2)
	c, err := Compile(f, m, RoundRobin, func(g *ir.Graph, mm *machine.Model) (*schedule.Schedule, error) {
		return uas.Schedule(g, mm)
	})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c.VerifyAgainstInterpreter(50)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Runs[1] != 0 || ex.Runs[2] != 1 {
		t.Errorf("runs = %v, want else path", ex.Runs)
	}
	// y = -(7*7)
	yCell := c.Layout.Home[2]
	if got := ex.Memory.Load(yCell, c.Layout.Addr(2)); got.AsInt() != -49 {
		t.Errorf("y = %v, want -49", got)
	}
}

func TestCompileWithConvergentScheduler(t *testing.T) {
	f, result := sumLoop()
	m := machine.Raw(4)
	conv := func(g *ir.Graph, mm *machine.Model) (*schedule.Schedule, error) {
		s, _, err := core.ScheduleCtx(context.Background(), g, mm, passes.ForMachine(mm.Name), 2002)
		return s, err
	}
	c, err := Compile(f, m, RoundRobin, conv)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := c.VerifyAgainstInterpreter(200)
	if err != nil {
		t.Fatal(err)
	}
	got := ex.Memory.Load(c.Layout.Home[result], c.Layout.Addr(result))
	if got.AsInt() != 165 {
		t.Errorf("result = %v, want 165", got)
	}
}

func TestLowerBlockNamesHelpDebugging(t *testing.T) {
	f, _ := sumLoop()
	m := machine.Raw(2)
	l := f.PlanLayout(m, FirstCluster)
	g, err := f.LowerBlock(1, m, l)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, in := range g.Instrs {
		if strings.HasPrefix(in.Name, "in:sum") || strings.HasPrefix(in.Name, "out:sum") {
			found = true
		}
	}
	if !found {
		t.Error("lowered instructions carry no variable names")
	}
}

// rawMachineForTest gives ifconvert tests a machine without import cycles.
func rawMachineForTest(t *testing.T) *machine.Model {
	t.Helper()
	return machine.Raw(4)
}
