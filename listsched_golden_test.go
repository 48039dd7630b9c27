package repro

// Frozen fingerprints for every scheduler that builds its schedule through
// internal/listsched: the convergent default sequence, the tuned ladder's
// first rung, the rawcc, uas and pcc baselines, the list-only rung and the
// optimality oracle's listsched realization. The hot-path golden pins only
// the convergent default on the kernels; this sweep adds Table 2's 2/4/8-tile
// raw models and Fig 10's random layered graphs, whose schedules vary with
// the graph seed, so a rewrite of the reservation tables that changes any
// placement, communication or error string fails here.
//
// testdata/listsched_golden.json was generated with -update-listsched-golden
// from the map-based reservation tables, before the dense rewrite.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/schedule"
)

var updateListschedGolden = flag.Bool("update-listsched-golden", false,
	"regenerate testdata/listsched_golden.json from the current scheduler")

const listschedGoldenPath = "testdata/listsched_golden.json"

// listschedGoldenSeeds are the RandomLayered graph seeds of the random cells.
var listschedGoldenSeeds = []int64{exp.Seed, 7}

// pccMaxRandom caps the random graphs the pcc cell runs on. PCC's own
// iterative descent is quadratic: at n=4000 it spends about a minute
// (several under -race) before its single listsched.Run, which the other
// cells cover at that size.
const pccMaxRandom = 1000

type listschedCell struct {
	name string
	run  func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error)
}

// listschedCells lists every scheduler whose schedule comes out of
// listsched.Run or listsched.Tables.
func listschedCells() []listschedCell {
	ctx := context.Background()
	return []listschedCell{
		{"convergent", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return robust.ConvergentRung("convergent", m, passes.ForMachine(m.Name), exp.Seed).Run(ctx, g)
		}},
		{"tuned", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return robust.TunedLadder(m, exp.Seed)[0].Run(ctx, g)
		}},
		{"rawcc", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) { return rawcc.Schedule(g, m) }},
		{"uas", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) { return uas.Schedule(g, m) }},
		{"pcc", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return pcc.Schedule(g, m, pcc.Options{})
		}},
		{"list", func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return robust.ListRung(m).Run(ctx, g)
		}},
	}
}

// listschedOracleGraphs are small graphs the oracle searches exactly, so its
// result comes from realizing relaxed solutions through listsched.Run.
func listschedOracleGraphs(clusters int) []*ir.Graph {
	chain := ir.New("chain16")
	prev := chain.AddConst(1).ID
	for i := 0; i < 16; i++ {
		prev = chain.Add(ir.Add, prev, prev).ID
	}
	diamond := ir.New("diamond")
	c := diamond.AddConst(7).ID
	a := diamond.Add(ir.Add, c, c).ID
	b := diamond.Add(ir.Sub, c, c).ID
	diamond.Add(ir.Mul, a, b)
	fanout := ir.New("fanout12")
	k := fanout.AddConst(3).ID
	var level []int
	for i := 0; i < 12; i++ {
		level = append(level, fanout.Add(ir.Add, k, k).ID)
	}
	for len(level) > 1 {
		var next []int
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, fanout.Add(ir.Add, level[i], level[i+1]).ID)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return []*ir.Graph{chain, diamond, fanout, bench.RandomLayered(24, 6, clusters, exp.Seed)}
}

func fingerprintOrError(s *schedule.Schedule, err error) string {
	if err != nil {
		return "error:" + err.Error()
	}
	return s.Fingerprint()
}

// listschedSweep fingerprints every cell. Errors are recorded as
// "error:<message>" so a cell that starts or stops failing is a divergence.
func listschedSweep(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	cells := listschedCells()
	var noPCC []listschedCell
	for _, c := range cells {
		if c.name != "pcc" {
			noPCC = append(noPCC, c)
		}
	}
	sweep := func(prefix string, g *ir.Graph, m *machine.Model, cells []listschedCell) {
		for _, c := range cells {
			s, err := c.run(g, m)
			out[fmt.Sprintf("%s/%s/%s", prefix, m.Name, c.name)] = fingerprintOrError(s, err)
		}
	}
	kernelMachines := []*machine.Model{machine.Raw(2), machine.Raw(4), machine.Raw(8), machine.Raw(16), machine.Chorus(4)}
	for _, m := range kernelMachines {
		for _, k := range bench.All() {
			sweep(k.Name, k.Build(m.NumClusters), m, cells)
		}
	}
	random := []struct {
		m     *machine.Model
		sizes []int
	}{
		{machine.Chorus(4), []int{200, 1000, 4000}},
		{machine.Raw(4), []int{200, 500}},
		{machine.Raw(16), []int{200, 500}},
	}
	for _, r := range random {
		for _, n := range r.sizes {
			cs := cells
			if n > pccMaxRandom {
				cs = noPCC
			}
			for _, seed := range listschedGoldenSeeds {
				g := bench.RandomLayered(n, n/12+4, r.m.NumClusters, seed)
				sweep(fmt.Sprintf("rand%d-g%d", n, seed), g, r.m, cs)
			}
		}
	}
	for _, m := range []*machine.Model{machine.Raw(4), machine.Chorus(4)} {
		for _, g := range listschedOracleGraphs(m.NumClusters) {
			res, err := oracle.Solve(context.Background(), g, m, oracle.Options{NodeBudget: 200_000})
			key := fmt.Sprintf("oracle-%s/%s", g.Name, m.Name)
			if err != nil {
				out[key] = "error:" + err.Error()
				continue
			}
			out[key] = fmt.Sprintf("%s lb=%d", res.Best.Fingerprint(), res.LowerBound)
		}
	}
	return out
}

// TestListschedByteIdenticalToGolden compares every listsched-backed
// scheduler's output with the frozen fingerprints.
func TestListschedByteIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheduler sweep; skipped in -short")
	}
	got := listschedSweep(t)

	if *updateListschedGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(listschedGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), listschedGoldenPath)
		return
	}

	data, err := os.ReadFile(listschedGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-listsched-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", listschedGoldenPath, err)
	}
	if len(want) == 0 {
		t.Fatalf("%s holds no fingerprints", listschedGoldenPath)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: cell missing from current sweep", key)
			continue
		}
		if g != want[key] {
			t.Errorf("%s: schedule diverged from golden\n  golden:  %s\n  current: %s", key, want[key], g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: cell has no golden (regenerate with -update-listsched-golden)", key)
		}
	}
}
