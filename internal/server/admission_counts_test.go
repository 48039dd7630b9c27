package server

// TestAdmissionCountsFrozen replays one scripted admission history on a fake
// clock and compares every count /stats reports — server-wide, per class and
// per tenant — against testdata/admission_counts.json after each phase. The
// file pins the accounting itself, so it must never be regenerated to make a
// rewrite of the counters pass.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// admissionCounts is the count projection of AdmissionStats: every integer
// field, plus the mean wait the script makes exact.
type admissionCounts struct {
	Accepted      uint64
	ShedQueue     uint64
	ShedRate      uint64
	ShedQuota     uint64
	Timeouts      uint64
	Completed     uint64
	Failed        uint64
	QueueDepth    int
	QueueCapacity int
	MeanWaitMs    float64
	// Fillers and FillerAccepted tally the tenants named filler-*.
	Fillers        int
	FillerAccepted uint64
	Classes        []classCounts
	Tenants        []tenantCounts
}

type classCounts struct {
	Class                                             string
	Weight, QueueDepth, QueueCapacity, Waiting        int
	Granted, Accepted, ShedRate, ShedQueue, ShedQuota uint64
}

type tenantCounts struct {
	Tenant, Class                            string
	Accepted, ShedRate, ShedQueue, ShedQuota uint64
	Timeouts, Completed, Failed              uint64
	Inflight                                 int
}

func countsOf(st AdmissionStats) admissionCounts {
	c := admissionCounts{
		Accepted: st.Accepted, ShedQueue: st.ShedQueue, ShedRate: st.ShedRate, ShedQuota: st.ShedQuota,
		Timeouts: st.Timeouts, Completed: st.Completed, Failed: st.Failed,
		QueueDepth: st.QueueDepth, QueueCapacity: st.QueueCapacity, MeanWaitMs: st.MeanWaitMs,
	}
	for _, cs := range st.Classes {
		c.Classes = append(c.Classes, classCounts{
			Class: cs.Class, Weight: cs.Weight, QueueDepth: cs.QueueDepth, QueueCapacity: cs.QueueCapacity,
			Waiting: cs.Waiting, Granted: cs.Granted, Accepted: cs.Accepted,
			ShedRate: cs.ShedRate, ShedQueue: cs.ShedQueue, ShedQuota: cs.ShedQuota,
		})
	}
	for _, ts := range st.Tenants {
		if strings.HasPrefix(ts.Tenant, "filler-") {
			// The script's fillers only occupy the tenant map: each is
			// admitted once. They are tallied, not listed.
			c.Fillers++
			c.FillerAccepted += ts.Accepted
			continue
		}
		c.Tenants = append(c.Tenants, tenantCounts{
			Tenant: ts.Tenant, Class: ts.Class, Accepted: ts.Accepted,
			ShedRate: ts.ShedRate, ShedQueue: ts.ShedQueue, ShedQuota: ts.ShedQuota,
			Timeouts: ts.Timeouts, Completed: ts.Completed, Failed: ts.Failed, Inflight: ts.Inflight,
		})
	}
	return c
}

// admissionStep is one phase of the script and the counts after it.
type admissionStep struct {
	Step   string
	Counts admissionCounts
}

// scriptAdmission runs the frozen admission history and returns the counts
// after each phase.
func scriptAdmission(t *testing.T) []admissionStep {
	t.Helper()
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }
	// Three classes: gold is heavy with a short queue, silver meters each
	// tenant at 1/s (burst 2), bronze is the default class and caps each
	// tenant at one request in flight. The global bucket holds 8 tokens
	// and refills at 1/s; two workers.
	a := newAdmission(TenantConfig{
		Classes: []TenantClass{
			{Name: "gold", Weight: 4, MaxQueue: 3},
			{Name: "silver", Weight: 2, MaxQueue: 4, RatePerSec: 1, Burst: 2},
			{Name: "bronze", Weight: 1, MaxQueue: 4, MaxInflight: 1},
		},
		Tenants:      map[string]string{"vip": "gold", "vip2": "gold", "steady": "silver"},
		DefaultClass: "bronze",
	}, 16, 2, 1, 8, now)
	refill := func() { clock = clock.Add(time.Hour) }

	var steps []admissionStep
	snap := func(name string) {
		steps = append(steps, admissionStep{Step: name, Counts: countsOf(a.stats())})
	}
	admit := func(tenant string) *admitGrant {
		g, _, _ := a.admit(tenant)
		return g
	}
	mustAdmit := func(tenant string) *admitGrant {
		g, cause, _ := a.admit(tenant)
		if g == nil {
			t.Fatalf("script: %q shed (%s) where the script expects admission", tenant, cause)
		}
		return g
	}
	closed := make(chan struct{})
	close(closed)
	// finish runs an admitted request to its end: worker grant, outcome,
	// release, with a wait the script makes exact.
	finish := func(g *admitGrant, wait time.Duration, failed bool) {
		if !a.acquireWorker(g, nil) {
			t.Fatalf("script: %s found no free worker", g.Tenant())
		}
		a.observe(g, wait, failed)
		a.releaseWorker()
		g.release()
	}

	// Phase 1: every tenant completes work; one anonymous request fails.
	refill()
	finish(mustAdmit("vip"), 2*time.Millisecond, false)
	finish(mustAdmit("vip2"), 4*time.Millisecond, false)
	finish(mustAdmit("steady"), 6*time.Millisecond, false)
	finish(mustAdmit(""), 8*time.Millisecond, true)
	finish(mustAdmit("walkin"), 10*time.Millisecond, false)
	snap("completions and a failure")

	// Phase 2: gold's queue fills (bound 3) and sheds both gold tenants.
	refill()
	held := []*admitGrant{mustAdmit("vip"), mustAdmit("vip"), mustAdmit("vip2")}
	if admit("vip") != nil || admit("vip2") != nil {
		t.Fatal("script: gold admitted past its queue bound")
	}
	snap("gold queue sheds")

	// Phase 3: steady drains its own bucket (burst 2); the third request is
	// a tenant-rate shed. The anonymous tenant hits bronze's quota of 1.
	refill()
	sg1, sg2 := mustAdmit("steady"), mustAdmit("steady")
	if admit("steady") != nil {
		t.Fatal("script: steady admitted past its tenant bucket")
	}
	anon := mustAdmit("")
	if admit("") != nil {
		t.Fatal("script: anonymous admitted past its in-flight quota")
	}
	snap("tenant-rate and quota sheds")

	// Phase 4: phase 3 took 5 of the global bucket's 8 tokens; three more
	// admits empty it, and every admit past that is a global rate shed.
	walkins := []*admitGrant{mustAdmit("walkin"), mustAdmit("walkin2"), mustAdmit("walkin3")}
	for _, tenant := range []string{"vip", "steady", "", "walkin", "walkin2"} {
		if admit(tenant) != nil {
			t.Fatalf("script: %q admitted from an empty global bucket", tenant)
		}
	}
	snap("global rate sheds")

	// Phase 5: timeouts. Both workers are busy, so a request whose
	// deadline has passed gives up in the queue; another times out after
	// it ran, counted as failed and as a timeout.
	refill()
	if !a.acquireWorker(held[0], nil) || !a.acquireWorker(held[1], nil) {
		t.Fatal("script: workers not free")
	}
	if a.acquireWorker(held[2], closed) {
		t.Fatal("script: expired request got a worker")
	}
	a.countTimeout(held[2])
	held[2].release()
	a.observe(held[0], time.Millisecond, false)
	a.releaseWorker()
	held[0].release()
	a.observe(held[1], 3*time.Millisecond, true)
	a.countTimeout(held[1])
	a.releaseWorker()
	held[1].release()
	finish(sg1, 5*time.Millisecond, false)
	for _, g := range walkins {
		g.release()
	}
	snap("timeouts")

	// Phase 6: fill the tenant map to its cap. Names past it share the
	// bronze overflow identity, whose quota of 1 then sheds the second
	// straggler in flight.
	for i := len(a.tenants); i < maxTrackedTenants; i++ {
		refill()
		mustAdmit(fmt.Sprintf("filler-%04d", i)).release()
	}
	refill()
	over := mustAdmit("straggler-1")
	if admit("straggler-2") != nil {
		t.Fatal("script: overflow identity admitted past its quota")
	}
	over.release()
	finish(mustAdmit("straggler-3"), 7*time.Millisecond, false)
	sg2.release()
	anon.release()
	snap("tenant overflow")
	return steps
}

func TestAdmissionCountsFrozen(t *testing.T) {
	got := scriptAdmission(t)
	path := filepath.Join("testdata", "admission_counts.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []admissionStep
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("script ran %d phases, %s has %d", len(got), path, len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("phase %q counts differ:\n got %s\nwant %s", want[i].Step, g, w)
		}
	}
}
