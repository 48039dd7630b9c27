package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/sim"
)

// wireSchedule is the part of a /schedule 200 body the checks read. It is
// decoded here, not taken from the server package, so the client relies on
// the wire format alone.
type wireSchedule struct {
	Graph      string `json:"graph"`
	Machine    string `json:"machine"`
	Served     string `json:"served"`
	Cycles     int    `json:"cycles"`
	Comms      int    `json:"comms"`
	Placements []struct {
		Cluster int `json:"cluster"`
		FU      int `json:"fu"`
		Start   int `json:"start"`
		Latency int `json:"latency"`
	} `json:"placements"`
	CommList []struct {
		Value  int `json:"value"`
		From   int `json:"from"`
		To     int `json:"to"`
		Depart int `json:"depart"`
		Arrive int `json:"arrive"`
	} `json:"commList"`
	CacheHit bool `json:"cacheHit"`
	Shared   bool `json:"shared"`
	Degraded bool `json:"degraded"`
	Attempts []struct {
		Rung string `json:"rung"`
	} `json:"attempts"`
}

// checked is a served body after the output check.
type checked struct {
	wire  wireSchedule
	sched *schedule.Schedule
	err   error
}

// decodeSchedule rebuilds the served schedule on the benchmark's own parse
// of the request body.
func decodeSchedule(e *entry, body []byte) (wireSchedule, *schedule.Schedule, error) {
	var w wireSchedule
	if err := json.Unmarshal(body, &w); err != nil {
		return w, nil, fmt.Errorf("decode: %w", err)
	}
	if len(w.Placements) != e.graph.Len() {
		return w, nil, fmt.Errorf("%d placements for %d instructions", len(w.Placements), e.graph.Len())
	}
	s := schedule.New(e.graph, e.mach)
	for i, p := range w.Placements {
		s.Placements[i] = schedule.Placement{Cluster: p.Cluster, FU: p.FU, Start: p.Start, Latency: p.Latency}
	}
	for _, c := range w.CommList {
		s.Comms = append(s.Comms, schedule.Comm{Value: c.Value, From: c.From, To: c.To, Depart: c.Depart, Arrive: c.Arrive})
	}
	return w, s, nil
}

// checkServed is the output check: the schedule must be legal, report its
// true length, and compute the right answer — a paper kernel against its
// host-side reference (Kernel.Check), a random graph against sequential
// reference execution (sim.Reference).
func checkServed(e *entry, body []byte) checked {
	w, s, err := decodeSchedule(e, body)
	if err != nil {
		return checked{wire: w, err: err}
	}
	c := checked{wire: w, sched: s}
	if err := s.Validate(); err != nil {
		c.err = fmt.Errorf("illegal schedule: %w", err)
		return c
	}
	if w.Cycles != s.Length() {
		c.err = fmt.Errorf("cycles %d, rebuilt schedule is %d long", w.Cycles, s.Length())
		return c
	}
	if w.Comms != len(s.Comms) || w.Graph != e.graph.Name || w.Machine != e.mach.Name {
		c.err = fmt.Errorf("response header mismatch: comms %d/%d graph %q machine %q", w.Comms, len(s.Comms), w.Graph, w.Machine)
		return c
	}
	if e.kernel != nil {
		clusters := e.mach.NumClusters
		got, err := sim.Run(s, e.kernel.InitMemory(clusters))
		if err != nil {
			c.err = fmt.Errorf("simulate: %w", err)
			return c
		}
		if err := e.kernel.Check(got.Memory, clusters); err != nil {
			c.err = fmt.Errorf("wrong answer: %w", err)
		}
		return c
	}
	want, err := sim.Reference(e.graph, sim.NewMemory())
	if err != nil {
		c.err = fmt.Errorf("reference: %w", err)
		return c
	}
	got, err := sim.Run(s, sim.NewMemory())
	if err != nil {
		c.err = fmt.Errorf("simulate: %w", err)
		return c
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) {
			c.err = fmt.Errorf("wrong answer: instruction %d computed %v, reference %v", i, got.Values[i], want.Values[i])
			return c
		}
	}
	if !got.Memory.Equal(want.Memory) {
		c.err = fmt.Errorf("wrong answer: final memory diverges from reference")
	}
	return c
}

// stats is the servers' own accounting at one moment.
type stats struct {
	shards []server.StatsResponse
	gw     *cluster.StatsResponse
}

func snapshot(st *stack) stats {
	var s stats
	for _, sh := range st.shards {
		s.shards = append(s.shards, sh.StatsSnapshot())
	}
	if st.gw != nil {
		g := st.gw.StatsSnapshot()
		s.gw = &g
	}
	return s
}

// loadStats are the window's server-side counters and client-side health
// figures; the traced run reports them as per-layer metrics and every run
// checks them.
type loadStats struct {
	lookups, hits, misses, shared, collisions, uncacheable uint64
	shed                                                   uint64
	admissionWaitMs                                        float64
	hedges, reroutes, doubleDeliveries                     uint64
	gateway                                                bool
	ladder                                                 ladderCounts
	latePs99Ms                                             float64
	lateSamples                                            int
	respKB                                                 float64
}

func loadStatsOf(w *workload, col *collector, oc outputCheck, before, after stats, lr loadResult) loadStats {
	ls := loadStats{ladder: oc.ladder}
	var waitTotal, waitN float64
	for k := range after.shards {
		a, b := after.shards[k], before.shards[k]
		ls.hits += a.Engine.Hits - b.Engine.Hits
		ls.misses += a.Engine.Misses - b.Engine.Misses
		ls.shared += a.Engine.Shared - b.Engine.Shared
		ls.collisions += a.Engine.Collisions - b.Engine.Collisions
		ls.uncacheable += a.Engine.Uncacheable - b.Engine.Uncacheable
		aa, ba := a.Admission, b.Admission
		ls.shed += (aa.ShedQueue + aa.ShedRate + aa.ShedQuota) - (ba.ShedQueue + ba.ShedRate + ba.ShedQuota)
		na := float64(aa.Completed + aa.Failed)
		nb := float64(ba.Completed + ba.Failed)
		waitTotal += aa.MeanWaitMs*na - ba.MeanWaitMs*nb
		waitN += na - nb
	}
	ls.lookups = ls.hits + ls.misses + ls.shared + ls.collisions + ls.uncacheable
	if waitN > 0 {
		ls.admissionWaitMs = waitTotal / waitN
	}
	if after.gw != nil {
		ls.gateway = true
		ls.hedges = after.gw.Hedges - before.gw.Hedges
		ls.reroutes = after.gw.Reroutes - before.gw.Reroutes
		ls.doubleDeliveries = after.gw.DoubleDeliveries - before.gw.DoubleDeliveries
	}
	var bytes, n float64
	for _, key := range col.order {
		u := col.uniq[key]
		bytes += float64(u.n) * float64(u.count)
		n += float64(u.count)
	}
	if n > 0 {
		ls.respKB = bytes / n / 1024
	}
	ls.latePs99Ms = quantile(lr.late, 0.99)
	ls.lateSamples = len(lr.late)
	return ls
}

// maxLateP99Ms is the load generator's health limit: beyond it the
// client's own work between requests, not the servers, set the offered load.
const maxLateP99Ms = 50.0

// selfCheck lists the reasons a run is invalid, so no gate passes
// vacuously: a cold workload that hit the cache, a warm one that missed, a
// degraded serve, a collision, a double delivery, a shed, or a client that
// fell behind.
func selfCheck(w *workload, ls loadStats) []string {
	var out []string
	if w.fixedSeed {
		if ls.lookups == 0 || ls.hits != ls.lookups {
			out = append(out, fmt.Sprintf("engine.hit_ratio must be exactly 1 on %s: %d hits of %d lookups", w.name, ls.hits, ls.lookups))
		}
	} else if ls.hits != 0 || ls.shared != 0 || ls.lookups == 0 {
		out = append(out, fmt.Sprintf("engine.hit_ratio must be exactly 0 on %s: %d hits, %d shared of %d lookups", w.name, ls.hits, ls.shared, ls.lookups))
	}
	if ls.ladder.degraded != 0 || ls.ladder.notConvergent != 0 {
		out = append(out, fmt.Sprintf("robust.degraded_frac must be 0: %d degraded serves, %d not served by the convergent rung", ls.ladder.degraded, ls.ladder.notConvergent))
	}
	if ls.collisions != 0 || ls.uncacheable != 0 {
		out = append(out, fmt.Sprintf("engine.collisions must be 0: %d collisions, %d uncacheable", ls.collisions, ls.uncacheable))
	}
	if ls.doubleDeliveries != 0 {
		out = append(out, fmt.Sprintf("cluster.double_deliveries must be 0: %d", ls.doubleDeliveries))
	}
	if ls.shed != 0 {
		out = append(out, fmt.Sprintf("server.shed must be 0: %d", ls.shed))
	}
	if ls.lateSamples == 0 || ls.latePs99Ms > maxLateP99Ms {
		out = append(out, fmt.Sprintf("the load generator fell behind: loadgen.late_p99_ms %.2f over %d samples (limit %.0f)", ls.latePs99Ms, ls.lateSamples, maxLateP99Ms))
	}
	return out
}

// ladderCounts tallies the degradation ladder over answers: how many
// carried a ladder report (cache misses), their rung attempts, and how many
// were degraded or served by another rung than the full convergent one.
type ladderCounts struct {
	reports, attempts, degraded, notConvergent int
}

func (lc *ladderCounts) add(w wireSchedule, count int) {
	if len(w.Attempts) > 0 {
		lc.reports += count
		lc.attempts += len(w.Attempts) * count
	}
	if w.Degraded {
		lc.degraded += count
	}
	if w.Served != "convergent" {
		lc.notConvergent += count
	}
}

// outputCheck is the result of checking every answer a run received.
type outputCheck struct {
	lap      []checked // the fixed list (lap 0), in request order
	cycles   int       // cycles_total over lap
	failed   int       // timed requests that failed or were wrong
	ladder   ladderCounts
	problems []string
}

// checkOutputs checks every distinct timed answer (charging a wrong one to
// every request that received it), every failed request, and the untimed
// priming and warm-up answers, and sums cycles_total over the fixed list.
func checkOutputs(w *workload, col *collector, untimed []job, answers []response) (outputCheck, error) {
	oc := outputCheck{lap: make([]checked, len(w.lap))}
	results := map[string]checked{}
	for _, key := range col.order {
		u := col.uniq[key]
		body, err := col.body(u)
		if err != nil {
			return oc, fmt.Errorf("reading back a served body: %w", err)
		}
		c := checkServed(&w.entries[u.entry], body)
		results[key] = c
		oc.ladder.add(c.wire, u.count)
		if c.err != nil {
			oc.failed += u.count
			oc.problems = append(oc.problems, fmt.Sprintf("%s seed %d: %v", w.entries[u.entry].name, u.seed, c.err))
		}
	}
	for _, r := range col.recs {
		if r.failErr != nil {
			oc.failed++
			oc.problems = append(oc.problems, fmt.Sprintf("%s seed %d: %v", w.entries[r.entry].name, r.seed, r.failErr))
		}
	}
	for k, r := range answers {
		j := untimed[k]
		c := checkServed(j.e, r.body)
		oc.ladder.add(c.wire, 1)
		if c.err != nil {
			oc.problems = append(oc.problems, fmt.Sprintf("untimed %s seed %d: %v", j.e.name, j.seed, c.err))
		}
	}
	for i := range w.lap {
		key, ok := col.lap0Key[i]
		if !ok {
			oc.problems = append(oc.problems, fmt.Sprintf("request %d of the fixed list was not served", i))
			continue
		}
		oc.lap[i] = results[key]
		oc.cycles += oc.lap[i].wire.Cycles
	}
	if oc.cycles > w.maxCycles {
		oc.problems = append(oc.problems, fmt.Sprintf("cycles_total %d exceeds %d, the total this workload's fixed list had when the benchmark was defined: schedule quality regressed", oc.cycles, w.maxCycles))
	}
	return oc, nil
}
