package faultinject_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/schedule"
)

var updateValidateGolden = flag.Bool("update-validate-golden", false,
	"regenerate testdata/validate_errors.json from the current validator")

const validateGoldenPath = "testdata/validate_errors.json"

// validateVerdict is schedule.Validate's first error for s, or "ok".
func validateVerdict(s *schedule.Schedule) string {
	if err := s.Validate(); err != nil {
		return err.Error()
	}
	return "ok"
}

// regate re-attaches a schedule built on a lying graph or model to the
// pristine one, as the legality gate does.
func regate(s *schedule.Schedule, g *ir.Graph, m *machine.Model) *schedule.Schedule {
	return &schedule.Schedule{Graph: g, Machine: m, Placements: s.Placements, Comms: s.Comms}
}

// validateSweep records Validate's verdict on every corruption every
// faultinject corruptor produces: each schedule class on the list and
// baseline schedules, and the graph and latency lies on the list schedule.
func validateSweep(t *testing.T) map[string]string {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]string)
	for _, m := range []*machine.Model{machine.Raw(4), machine.Raw(16), machine.Chorus(4)} {
		for _, g := range propGraphs(m.NumClusters) {
			for _, rung := range []robust.Rung{robust.ListRung(m), robust.BaselineRung(m)} {
				s, err := rung.Run(ctx, g)
				if err != nil {
					continue // rawcc cannot schedule memprop on raw4; nothing to corrupt
				}
				for _, class := range faultinject.ScheduleClasses() {
					for seed := int64(0); seed < 6; seed++ {
						if mut, _, ok := faultinject.MutateSchedule(s, class, seed); ok {
							out[fmt.Sprintf("%s/%s/%s/%s/seed%d", class, rung.Name, g.Name, m.Name, seed)] = validateVerdict(mut)
						}
					}
				}
			}
			list := robust.ListRung(m)
			graphLies := map[string]func(*ir.Graph, int64) (*ir.Graph, bool){
				faultinject.ChaosDropMemEdge: faultinject.DropMemEdge,
				faultinject.ChaosRewireArg:   faultinject.RewireArg,
			}
			for class, mutate := range graphLies {
				for seed := int64(0); seed < 6; seed++ {
					lie, ok := mutate(g, seed)
					if !ok {
						continue
					}
					s, err := list.Run(ctx, lie)
					key := fmt.Sprintf("%s/list/%s/%s/seed%d", class, g.Name, m.Name, seed)
					if err != nil {
						out[key] = "schedule error: " + err.Error()
						continue
					}
					out[key] = validateVerdict(regate(s, g, m))
				}
			}
			s, err := robust.ListRung(faultinject.LyingModel(m)).Run(ctx, g)
			key := fmt.Sprintf("%s/list/%s/%s", faultinject.ChaosLatencyLiar, g.Name, m.Name)
			if err != nil {
				out[key] = "schedule error: " + err.Error()
				continue
			}
			out[key] = validateVerdict(regate(s, g, m))
		}
	}
	return out
}

// TestValidateFirstErrorsFrozen pins schedule.Validate's first error string
// on every corruption the faultinject corruptors produce, so a faster
// validator must report exactly the violation the reference one did.
func TestValidateFirstErrorsFrozen(t *testing.T) {
	got := validateSweep(t)
	if *updateValidateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(validateGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d verdicts to %s", len(got), validateGoldenPath)
		return
	}
	data, err := os.ReadFile(validateGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-validate-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", validateGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%d verdicts, golden has %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: corruption no longer produced", key)
		} else if g != w {
			t.Errorf("%s: first error changed\n  golden:  %s\n  current: %s", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: corruption has no golden verdict", key)
		}
	}
}
