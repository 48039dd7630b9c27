// Package tune implements the paper's stated future work: "we expect to
// implement more systematic heuristics selection in the future" (Section 4
// notes that the pass set, weights and order were selected by
// trial-and-error; the related-work section points at Cooper's
// genetic-algorithm pass-ordering search as the model).
//
// Search runs randomized hill climbing over pass sequences: starting from a
// seed sequence, it proposes single edits — swap two passes, replace one,
// insert one, delete one — and keeps an edit whenever the total schedule
// length over a benchmark suite does not get worse. Sequences are plain
// label lists (the same names Table 1 uses), so results are directly
// human-readable and reproducible.
package tune

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
)

// Options configures a search.
type Options struct {
	// Machine is the target.
	Machine *machine.Model
	// Kernels is the objective suite; total schedule cycles over these
	// kernels is the cost.
	Kernels []bench.Kernel
	// Start is the seed sequence as pass labels; empty means the
	// published sequence for the machine.
	Start []string
	// Iters is the number of proposed edits (default 50).
	Iters int
	// Seed drives both the proposal randomness and the convergent
	// scheduler's noise pass.
	Seed int64
	// MinLen and MaxLen bound the sequence length (defaults 3 and 16).
	MinLen, MaxLen int
	// Log, when non-nil, receives one line per accepted improvement.
	Log func(string)
	// Engine, when non-nil, evaluates candidates through the batch engine:
	// the suite's kernels schedule concurrently and the content-addressed
	// cache memoizes kernel-x-sequence evaluations across the search (hill
	// climbing re-proposes equivalent sequences constantly). Costs are
	// identical to the serial path.
	Engine *engine.Engine
	// Target, when positive, stops the search as soon as the best cost
	// reaches it. The oracle-guided mode sets this to the suite's
	// certified lower bound: a sequence meeting it is proven optimal and
	// further search is pointless.
	Target int
}

// Step records one accepted improvement.
type Step struct {
	Iter int
	Cost int
	Seq  []string
}

// Result is the outcome of a search.
type Result struct {
	// Start/StartCost describe the seed.
	Start     []string
	StartCost int
	// Best/BestCost describe the winner.
	Best     []string
	BestCost int
	// Improvements lists every accepted strict improvement, in order.
	Improvements []Step
	// Evaluations counts cost-function calls.
	Evaluations int
}

func (o *Options) withDefaults() error {
	if o.Machine == nil {
		return fmt.Errorf("tune: no machine")
	}
	if len(o.Kernels) == 0 {
		return fmt.Errorf("tune: no kernels")
	}
	if o.Iters == 0 {
		o.Iters = 50
	}
	if o.MinLen == 0 {
		o.MinLen = 3
	}
	if o.MaxLen == 0 {
		o.MaxLen = 16
	}
	if len(o.Start) == 0 {
		for _, p := range passes.ForMachine(o.Machine.Name) {
			o.Start = append(o.Start, p.Name())
		}
	}
	return nil
}

// Cost evaluates a sequence: the summed schedule length over the suite, or
// an error if any label is unknown or any kernel fails to schedule.
func Cost(m *machine.Model, kernels []bench.Kernel, labels []string, seed int64) (int, error) {
	seq, err := sequenceFor(labels)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, k := range kernels {
		g := k.Build(m.NumClusters)
		s, _, err := core.ScheduleCtx(context.TODO(), g, m, seq, seed)
		if err != nil {
			return 0, fmt.Errorf("tune: %s: %w", k.Name, err)
		}
		total += s.Length()
	}
	return total, nil
}

// CostWith evaluates a sequence through the batch engine. The single-rung
// ladder has no fallback on purpose: a sequence that fails to schedule must
// be an error, exactly as in Cost — silent degradation to a baseline would
// score the fallback rung and re-label the candidate being searched.
func CostWith(e *engine.Engine, m *machine.Model, kernels []bench.Kernel, labels []string, seed int64) (int, error) {
	seq, err := sequenceFor(labels)
	if err != nil {
		return 0, err
	}
	jobs := make([]engine.Job, len(kernels))
	for i, k := range kernels {
		jobs[i] = engine.Job{
			ID:      k.Name,
			Graph:   k.Build(m.NumClusters),
			Machine: m,
			Opts: robust.Options{
				Seed:   seed,
				Ladder: []robust.Rung{robust.ConvergentRung("convergent", m, seq, seed)},
			},
			LadderID: "tune:" + core.SequenceID(seq),
		}
	}
	total := 0
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Err != nil {
			return 0, fmt.Errorf("tune: %s: %w", r.ID, r.Err)
		}
		total += r.Schedule.Length()
	}
	return total, nil
}

// sequenceFor resolves pass labels into the pass sequence they name.
func sequenceFor(labels []string) ([]core.Pass, error) {
	seq := make([]core.Pass, 0, len(labels))
	for _, l := range labels {
		p, ok := passes.Named(l)
		if !ok {
			return nil, fmt.Errorf("tune: unknown pass %q", l)
		}
		seq = append(seq, p)
	}
	return seq, nil
}

// Search runs the hill climb and returns the best sequence found.
func Search(opt Options) (*Result, error) {
	if err := opt.withDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	labels := passes.AllLabels()
	evalCost := func(labels []string) (int, error) {
		if opt.Engine != nil {
			return CostWith(opt.Engine, opt.Machine, opt.Kernels, labels, opt.Seed)
		}
		return Cost(opt.Machine, opt.Kernels, labels, opt.Seed)
	}

	cur := append([]string(nil), opt.Start...)
	curCost, err := evalCost(cur)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Start:     append([]string(nil), cur...),
		StartCost: curCost,
		Best:      append([]string(nil), cur...),
		BestCost:  curCost,
	}
	res.Evaluations++
	if opt.Target > 0 && res.BestCost <= opt.Target {
		return res, nil
	}

	propose := func() []string {
		next := append([]string(nil), cur...)
		switch rng.Intn(4) {
		case 0: // swap
			if len(next) >= 2 {
				i, j := rng.Intn(len(next)), rng.Intn(len(next))
				next[i], next[j] = next[j], next[i]
			}
		case 1: // replace
			next[rng.Intn(len(next))] = labels[rng.Intn(len(labels))]
		case 2: // insert
			if len(next) < opt.MaxLen {
				at := rng.Intn(len(next) + 1)
				next = append(next[:at], append([]string{labels[rng.Intn(len(labels))]}, next[at:]...)...)
			}
		case 3: // delete
			if len(next) > opt.MinLen {
				at := rng.Intn(len(next))
				next = append(next[:at], next[at+1:]...)
			}
		}
		return next
	}

	for it := 0; it < opt.Iters; it++ {
		cand := propose()
		cost, err := evalCost(cand)
		if err != nil {
			// A sequence can be structurally fine yet fail to
			// schedule only through a framework bug; surface it.
			return nil, err
		}
		res.Evaluations++
		// Accept non-worsening moves to traverse plateaus; record
		// strict improvements.
		if cost < curCost {
			res.Improvements = append(res.Improvements, Step{Iter: it, Cost: cost, Seq: append([]string(nil), cand...)})
			if opt.Log != nil {
				opt.Log(fmt.Sprintf("iter %d: %d -> %d cycles: %v", it, curCost, cost, cand))
			}
		}
		if cost <= curCost {
			cur, curCost = cand, cost
		}
		if curCost < res.BestCost {
			res.Best = append([]string(nil), cur...)
			res.BestCost = curCost
		}
		if opt.Target > 0 && res.BestCost <= opt.Target {
			break
		}
	}
	return res, nil
}
