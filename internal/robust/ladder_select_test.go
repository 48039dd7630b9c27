package robust_test

// Frozen ladder selection: for every (machine, scheduler name, tuned,
// fallback) a caller can ask for, the rung names of the selected ladder,
// whether it is nil (the driver's default ladder, identified by the engine),
// its cache identity and the selection error. Ladder identities are a
// persisted format — store keys derive from them — so any change here
// orphans every stored schedule.
//
// testdata/ladder_select.json was generated from the per-caller selectors
// (cmd/convsched's tuned check and batch switch, internal/server's
// ladderFor) before they were merged into LadderFor, and is never
// regenerated from LadderFor itself: a deliberate change to a selection is a
// hand edit of the file, with the orphaned store keys in mind.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/robust"
)

const ladderSelectPath = "testdata/ladder_select.json"

type ladderSelection struct {
	Key   string   `json:"key"`
	Nil   bool     `json:"nil"`
	Rungs []string `json:"rungs"`
	ID    string   `json:"id"`
	Error string   `json:"error"`
}

func ladderSelections(t *testing.T) []ladderSelection {
	t.Helper()
	const seed = 2002
	var out []ladderSelection
	for _, mname := range []string{"raw4", "raw16", "vliw4"} {
		m, err := machine.Named(mname)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"convergent", "rawcc", "uas", "pcc", "list", "quantum"} {
			for _, tuned := range []bool{false, true} {
				for _, fallback := range []bool{false, true} {
					ladder, id, err := robust.LadderFor(m, sched, tuned, fallback, seed)
					sel := ladderSelection{
						Key: fmt.Sprintf("%s/%s/tuned=%t/fallback=%t", mname, sched, tuned, fallback),
						Nil: ladder == nil,
						ID:  id,
					}
					for _, r := range ladder {
						sel.Rungs = append(sel.Rungs, r.Name)
					}
					if err != nil {
						sel.Error = err.Error()
					}
					out = append(out, sel)
				}
			}
		}
	}
	return out
}

// TestLadderSelectionFrozen fails on any change to a selected ladder's rung
// names, nil-ness, cache identity or selection error.
func TestLadderSelectionFrozen(t *testing.T) {
	got := ladderSelections(t)
	raw, err := os.ReadFile(ladderSelectPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []ladderSelection
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]ladderSelection, len(want))
	for _, w := range want {
		wantBy[w.Key] = w
	}
	if len(wantBy) != len(got) {
		t.Errorf("golden has %d selections, the sweep makes %d", len(wantBy), len(got))
	}
	for _, g := range got {
		w, ok := wantBy[g.Key]
		if !ok {
			t.Errorf("%s: no frozen selection", g.Key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: selection changed\n  frozen: %+v\n  now:    %+v", g.Key, w, g)
		}
	}
}

// TestDefaultLadderFrozen pins the ladder a nil selection stands for: the
// rung names of DefaultLadder and the DefaultLadderID the engine keys it by.
// testdata/default_ladder.json was generated before DefaultLadder and the
// tuned ladder shared a builder.
func TestDefaultLadderFrozen(t *testing.T) {
	raw, err := os.ReadFile("testdata/default_ladder.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Machine string   `json:"machine"`
		Rungs   []string `json:"rungs"`
		ID      string   `json:"id"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		m, err := machine.Named(w.Machine)
		if err != nil {
			t.Fatal(err)
		}
		var rungs []string
		for _, r := range robust.DefaultLadder(m, 2002) {
			rungs = append(rungs, r.Name)
		}
		if !reflect.DeepEqual(rungs, w.Rungs) {
			t.Errorf("%s: DefaultLadder rungs %v, frozen %v", w.Machine, rungs, w.Rungs)
		}
		if id := robust.DefaultLadderID(m, 2002); id != w.ID {
			t.Errorf("%s: DefaultLadderID changed\n  frozen: %s\n  now:    %s", w.Machine, w.ID, id)
		}
	}
}
