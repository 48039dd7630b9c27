package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
)

// warmSeed is the scheduler seed of the warm working set. It is fixed, not
// drawn from --seed, so the working set (and its cycles_total) is the same
// in every run; --seed drives the request order.
const warmSeed = 2002

// entry is one distinct scheduling unit a workload sends: a graph in
// irtext form for one machine, with what the output check needs.
type entry struct {
	name    string // "cholesky@raw16", "rand4000@vliw4"
	machine string
	mach    *machine.Model
	body    []byte
	graph   *ir.Graph     // the benchmark's own parse of body
	kernel  *bench.Kernel // nil for random graphs (checked against sim.Reference)
	size    int           // instruction count
}

// workload is a fixed request list plus the way it is offered.
type workload struct {
	name    string
	entries []entry
	// lap lists entry indices; request i of a run sends lap[perm(i)] so
	// every lap sends each listed entry once, in a seeded order.
	lap []int
	// gateway routes the load through schedgw in front of two shards.
	gateway bool
	// fixedSeed sends every request with scheduler seed warmSeed (a
	// cache-hit workload); otherwise request i gets its own seed, so every
	// request misses the cache.
	fixedSeed bool
	// maxCycles is cycles_total as the benchmark's defining commit served
	// it. A run whose fixed list sums to more is invalid: schedule quality
	// regressed. A smaller total (better schedules) passes.
	maxCycles int
}

var workloadNames = []string{"cold-raw", "cold-vliw", "warm-gateway"}

func newEntry(name, machName string, g *ir.Graph, k *bench.Kernel) (entry, error) {
	m, err := machine.Named(machName)
	if err != nil {
		return entry{}, err
	}
	var buf bytes.Buffer
	if err := irtext.Print(&buf, g); err != nil {
		return entry{}, err
	}
	own, err := irtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return entry{}, fmt.Errorf("%s: reparse: %w", name, err)
	}
	return entry{name: name, machine: machName, mach: m, body: buf.Bytes(), graph: own, kernel: k, size: own.Len()}, nil
}

func kernelEntry(k bench.Kernel, machName string) (entry, error) {
	m, err := machine.Named(machName)
	if err != nil {
		return entry{}, err
	}
	kk := k
	return newEntry(k.Name+"@"+machName, machName, k.Build(m.NumClusters), &kk)
}

// graphSeed generates the random graphs. It is fixed, not drawn from
// --seed, so the fixed request list, and with it cycles_total, is the same
// in every run.
const graphSeed = 2002

// randomEntry is a Fig 10 layered random graph of n instructions on vliw4,
// width n/12+4.
func randomEntry(n int) (entry, error) {
	g := bench.RandomLayered(n, n/12+4, 4, graphSeed+int64(n))
	return newEntry(fmt.Sprintf("rand%d@vliw4", n), "vliw4", g, nil)
}

// buildWorkload makes a workload's inputs from the seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name}
	add := func(e entry, err error) error {
		if err != nil {
			return err
		}
		w.entries = append(w.entries, e)
		return nil
	}
	switch name {
	case "cold-raw":
		for _, k := range bench.RawSuite() {
			if err := add(kernelEntry(k, "raw16")); err != nil {
				return nil, err
			}
		}
		w.lap = identity(len(w.entries))
		w.maxCycles = 1475
	case "cold-vliw":
		for _, k := range bench.VliwSuite() {
			if err := add(kernelEntry(k, "vliw4")); err != nil {
				return nil, err
			}
		}
		for _, n := range []int{1000, 2000, 4000} {
			if err := add(randomEntry(n)); err != nil {
				return nil, err
			}
		}
		// cholesky and rand2000 go twice per lap, so as many requests are
		// slower than the rand1000/tomcatv pair as faster: the median
		// request falls between two classes of nearly equal latency, where
		// requests are densest, not in a gap between classes.
		w.lap = append(identity(len(w.entries)), len(bench.VliwSuite())-1, len(w.entries)-2)
		w.maxCycles = 3038
	case "warm-gateway":
		for _, mach := range []string{"raw16", "vliw4"} {
			for _, k := range bench.All() {
				if err := add(kernelEntry(k, mach)); err != nil {
					return nil, err
				}
			}
		}
		w.lap = identity(len(w.entries))
		w.gateway, w.fixedSeed = true, true
		w.maxCycles = 3785
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// plan fixes which entry and scheduler seed request i of a run uses. Laps
// are shuffled independently from the seed. Lap 0 is the workload's fixed
// request list: its (entry, scheduler seed) pairs do not depend on --seed,
// so cycles_total, which sums their served lengths, repeats exactly in
// every run. Later laps draw fresh scheduler seeds from --seed.
type plan struct {
	w        *workload
	rng      *rand.Rand
	perms    [][]int
	seedBase int64
}

func newPlan(w *workload, seed int64) *plan {
	return &plan{w: w, rng: rand.New(rand.NewSource(seed)), seedBase: (seed%1_000_000 + 1) * 10_000_000}
}

// request returns the entry index and scheduler seed of request i. It must
// be called with increasing i from one goroutine at a time.
func (p *plan) request(i int) (int, int64) {
	L := len(p.w.lap)
	for len(p.perms) <= i/L {
		p.perms = append(p.perms, p.rng.Perm(L))
	}
	slot := p.perms[i/L][i%L]
	e := p.w.lap[slot]
	switch {
	case p.w.fixedSeed:
		return e, warmSeed
	case i < L:
		return e, int64(1 + slot)
	}
	return e, p.seedBase + int64(i)
}

// warmupSeed is the scheduler seed of the j-th untimed warm-up request; it
// never collides with a timed request's seed.
func (p *plan) warmupSeed(j int) int64 {
	if p.w.fixedSeed {
		return warmSeed
	}
	return p.seedBase - 1 - int64(j)
}
