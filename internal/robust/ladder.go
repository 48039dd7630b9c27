package robust

import (
	"context"
	"fmt"

	"repro/internal/baseline/pcc"
	"repro/internal/baseline/rawcc"
	"repro/internal/baseline/uas"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/listsched"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/schedule"
)

// ConvergentRung wraps the convergent scheduler with the given pass
// sequence and noise seed as a ladder rung.
func ConvergentRung(name string, m *machine.Model, seq []core.Pass, seed int64) Rung {
	return Rung{Name: name, Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		s, _, err := core.ScheduleCtx(ctx, g, m, seq, seed)
		return s, err
	}}
}

// TruncatedSequence returns the first half of a pass sequence (rounded up),
// the degraded-mode sequence of the default ladder: fewer passes converge
// less but each pass is an independent heuristic, so a prefix still yields
// a complete preference map.
func TruncatedSequence(seq []core.Pass) []core.Pass {
	return seq[:(len(seq)+1)/2]
}

// BaselineRung returns the machine's strongest non-convergent scheduler:
// the Rawcc-style space-time scheduler on machines with owned memory banks
// (Raw), UAS on clustered VLIWs.
func BaselineRung(m *machine.Model) Rung {
	if m.RemoteMemPenalty < 0 {
		return schedulerRung("rawcc", m, rawcc.Schedule)
	}
	return schedulerRung("uas", m, uas.Schedule)
}

// schedulerRung wraps a context-free scheduler as a rung.
func schedulerRung(name string, m *machine.Model, sched func(*ir.Graph, *machine.Model) (*schedule.Schedule, error)) Rung {
	return Rung{Name: name, Run: func(_ context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		return sched(g, m)
	}}
}

// ListRung is the last-resort rung: critical-path list scheduling with the
// trivial assignment (preplacement homes and bank owners honoured,
// everything else on cluster 0). It exercises no heuristic machinery at
// all, so it survives almost anything the richer schedulers choke on.
func ListRung(m *machine.Model) Rung {
	return Rung{Name: "list", Run: func(ctx context.Context, g *ir.Graph) (*schedule.Schedule, error) {
		assign := make([]int, g.Len())
		for i, in := range g.Instrs {
			switch {
			case in.Preplaced():
				assign[i] = in.Home
			case in.Op.IsMemory():
				assign[i] = m.BankOwner(in.Bank)
			}
		}
		return listsched.Run(g, m, listsched.Options{Assignment: assign})
	}}
}

// DefaultLadder is the degradation ladder the driver walks when Options.
// Ladder is nil:
//
//	convergent (full published sequence, seed)
//	→ convergent (truncated sequence, fresh seed)
//	→ rawcc or uas (machine-appropriate baseline)
//	→ single-cluster-style list baseline
//
// The truncated rung reseeds the noise pass, so a seed-dependent failure in
// the full sequence does not recur, matching the anytime-scheduling advice
// of the combinatorial-scheduling literature: always have a cheaper legal
// answer to fall back to.
func DefaultLadder(m *machine.Model, seed int64) []Rung {
	return convergentLadder(m, "convergent", passes.ForMachine(m.Name), seed)
}

// DefaultLadderID returns a stable textual identity of the ladder that
// DefaultLadder(m, seed) builds: the pass-sequence identities and seeds of
// both convergent rungs plus the machine's baseline rung name. It is the
// cache-key component internal/engine uses for default-ladder scheduling
// requests, so it must change whenever DefaultLadder would walk different
// schedulers — a new pass in the sequence, a different truncation, or a
// different baseline all change the ID.
func DefaultLadderID(m *machine.Model, seed int64) string {
	return convergentLadderID(m, "convergent", passes.ForMachine(m.Name), seed)
}

// convergentLadder builds the four-rung degradation ladder around the pass
// sequence seq, its convergent rungs named name and name-truncated. The
// default and tuned ladders are both built here.
func convergentLadder(m *machine.Model, name string, seq []core.Pass, seed int64) []Rung {
	return []Rung{
		ConvergentRung(name, m, seq, seed),
		ConvergentRung(name+"-truncated", m, TruncatedSequence(seq), seed+1),
		BaselineRung(m),
		ListRung(m),
	}
}

// convergentLadderID is the cache identity of convergentLadder(m, name, seq,
// seed). It is kept apart from the builder because the driver builds the
// default ladder on every request while the engine derives its ID, and
// rendering the sequence identities costs far more than the rungs.
func convergentLadderID(m *machine.Model, name string, seq []core.Pass, seed int64) string {
	return fmt.Sprintf("%s[%s|seed=%d]>%s-truncated[%s|seed=%d]>%s>list",
		name, core.SequenceID(seq), seed,
		name, core.SequenceID(TruncatedSequence(seq)), seed+1,
		BaselineRung(m).Name)
}

// LadderFor resolves a scheduling request to the ladder the driver walks and
// the ladder's cache identity. scheduler names the primary rung (convergent,
// rawcc, uas, pcc or list); tuned swaps the convergent scheduler's published
// pass sequence for the oracle-tuned one (passes.TunedForMachine); fallback
// adds the degradation rungs behind the primary. Every front end (convsched,
// schedd, regionc) selects through this function.
//
// The convergent fallback ladder is returned nil with an empty ID: the
// driver then walks DefaultLadder(m, Options.Seed) and internal/engine
// derives its identity (DefaultLadderID), so the caller must set
// Options.Seed. A tuned fallback ladder is the default ladder's shape around
// the tuned sequence. Any other primary degrades straight to the list rung
// (falling back from one baseline to another would silently re-label the
// experiment being run), and list has nothing below it.
//
// Ladder IDs are a persisted format — engine cache keys, and with them the
// keys of every persistent store, derive from them — so they must stay
// byte-identical; testdata/ladder_select.json and default_ladder.json
// freeze every one. The tuned error names convsched's flags because
// convsched is the only front end that offers tuned.
func LadderFor(m *machine.Model, scheduler string, tuned, fallback bool, seed int64) ([]Rung, string, error) {
	if tuned {
		if scheduler != "convergent" {
			return nil, "", fmt.Errorf("-tuned selects a convergent pass sequence; use -scheduler convergent, not %q", scheduler)
		}
		seq := passes.TunedForMachine(m.Name)
		if fallback {
			return convergentLadder(m, "convergent-tuned", seq, seed),
				convergentLadderID(m, "convergent-tuned", seq, seed), nil
		}
		return []Rung{ConvergentRung("convergent-tuned", m, seq, seed)},
			fmt.Sprintf("rung:convergent-tuned[%s]:seed=%d", core.SequenceID(seq), seed), nil
	}
	var primary Rung
	switch scheduler {
	case "convergent":
		if fallback {
			return nil, "", nil
		}
		primary = ConvergentRung("convergent", m, passes.ForMachine(m.Name), seed)
	case "rawcc":
		primary = schedulerRung("rawcc", m, rawcc.Schedule)
	case "uas":
		primary = schedulerRung("uas", m, uas.Schedule)
	case "pcc":
		primary = schedulerRung("pcc", m, func(g *ir.Graph, m *machine.Model) (*schedule.Schedule, error) {
			return pcc.Schedule(g, m, pcc.Options{})
		})
	case "list":
		primary = ListRung(m)
	default:
		return nil, "", fmt.Errorf("robust: unknown scheduler %q", scheduler)
	}
	ladder, kind := []Rung{primary}, "rung"
	if fallback {
		kind = "fallback"
		if scheduler != "list" {
			ladder = append(ladder, ListRung(m))
		}
	}
	return ladder, fmt.Sprintf("%s:%s:seed=%d", kind, scheduler, seed), nil
}
