package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/listsched"
	"repro/internal/passes"
	"repro/internal/robust"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/sim"
)

// The traced replay sends the workload's fixed request list (lap 0 of the
// timed window) serially through each layer's public functions, timing the
// calls from here — the spans live in the benchmark, not in the program —
// and counting allocations with runtime.MemStats deltas. The decomposed
// path must reproduce every served schedule byte for byte, which shows the
// decomposition measures the real request path.

// reps is how many times a microsecond-scale call is repeated per request;
// the per-request figure is the median.
const reps = 11

// pathReps is how many times each millisecond-scale scheduling call
// (robust.Schedule, core.ConvergeCtx) is timed per request; the
// per-request figure is the median.
const pathReps = 7

// passNames are the thirteen convergent passes, in the names the metrics
// use (core.Pass.Name lower-cased).
var passNames = []string{"inittime", "placeprop", "load", "place", "path", "pathprop", "level", "comm2", "emphcp", "noise", "first", "comm", "fuload"}

// serverTimeout is schedd's default per-attempt budget, which every load
// request runs under; the replayed ladder uses the same.
const serverTimeout = 2 * time.Second

// probe measures calls from outside: wall time, and allocations from
// MemStats deltas. It remembers how long its own MemStats reads took.
type probe struct {
	measuring time.Duration
}

func (p *probe) allocs(fn func()) uint64 {
	var a, b runtime.MemStats
	t0 := time.Now()
	runtime.ReadMemStats(&a)
	t1 := time.Now()
	fn()
	t2 := time.Now()
	runtime.ReadMemStats(&b)
	p.measuring += t1.Sub(t0) + time.Since(t2)
	return b.Mallocs - a.Mallocs
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// rotated times each call n times and returns each call's median in
// milliseconds. Every round runs all calls, starting one further along each
// time, so neither a fixed position nor a cache the previous call warmed
// favours one of them. A call's prep function builds its input untimed and
// returns the timed part; the heap is collected before every timed part.
func rotated(n int, calls ...func() func()) []float64 {
	ds := make([][]float64, len(calls))
	for k := 0; k < n; k++ {
		for j := range calls {
			c := (j + k) % len(calls)
			fn := calls[c]()
			runtime.GC()
			ds[c] = append(ds[c], ms(timed(fn)))
		}
	}
	out := make([]float64, len(calls))
	for c, d := range ds {
		out[c] = median(d)
	}
	return out
}

func mustParse(body []byte) *ir.Graph {
	g, err := irtext.Parse(bytes.NewReader(body))
	if err != nil {
		panic(fmt.Sprintf("reparse of a body that parsed before: %v", err))
	}
	return g
}

// layerTimes is one request's decomposed-path measurement.
type layerTimes struct {
	normalize, listsched time.Duration
	passes               map[string]time.Duration
	listschedAllocs      uint64
	sched                *schedule.Schedule
}

// decomposed runs the convergent rung exactly as core.ScheduleCtx does —
// each pass followed by NormalizeAll, the preferred clusters and times,
// SpreadConsts, the height tie-break and listsched.Run — with a span around
// every step. It runs on a core.NewState, the only state a caller can
// build; the served path draws an equivalent one from core's pool.
func decomposed(pr *probe, e *entry, seed int64) (layerTimes, error) {
	g, m := mustParse(e.body), e.mach
	lt := layerTimes{passes: map[string]time.Duration{}}
	if err := listsched.CheckGraph(g, m); err != nil {
		return lt, err
	}
	seq := passes.ForMachine(m.Name)
	s := core.NewState(g, m, seed)
	sc := s.Scratch()
	sc.Rewind()
	n := g.Len()
	prev := s.W.PreferredClustersInto(sc.Ints(n))
	cur := sc.Ints(n)
	for _, p := range seq {
		a := time.Now()
		p.Run(s)
		b := time.Now()
		s.W.NormalizeAll()
		lt.passes[strings.ToLower(p.Name())] += b.Sub(a)
		lt.normalize += time.Since(b)
		s.W.PreferredClustersInto(cur)
		prev, cur = cur, prev
	}
	assign := append([]int(nil), prev...)
	ptime := s.W.PreferredTimes()
	for _, i := range g.Preplaced() {
		assign[i] = g.Instrs[i].Home
	}

	var err error
	lt.listschedAllocs = pr.allocs(func() {
		t1 := time.Now()
		listsched.SpreadConsts(g, m, assign)
		prio := make([]float64, n)
		h := g.Height(m.LatencyFunc())
		maxH := 1
		for _, v := range h {
			maxH = max(maxH, v)
		}
		for i := range prio {
			prio[i] = float64(ptime[i]) - float64(h[i])/float64(maxH+1)
		}
		lt.sched, err = listsched.Run(g, m, listsched.Options{Assignment: assign, Priority: prio})
		lt.listsched = time.Since(t1)
	})
	return lt, err
}

// item is one request of the fixed list with everything measured about it.
type item struct {
	e      *entry
	seed   int64
	served *schedule.Schedule

	parseUs, canonUs, parseAllocs float64
	lt                            layerTimes
	validateUs, verifyUs, gatedUs float64
	robustMs, convergeMs          float64
	convergeAllocs                float64
	engineUs, engineAllocs        float64
	handleUs, handleAllocs        float64
	gatewayUs, directUs           float64
}

// sameSchedule reports whether got equals the served schedule byte for byte.
func sameSchedule(what string, it *item, got *schedule.Schedule) string {
	if got == nil || got.Fingerprint() != it.served.Fingerprint() {
		return fmt.Sprintf("replay: %s of %s seed %d differs from the served schedule", what, it.e.name, it.seed)
	}
	return ""
}

func replay(ctx context.Context, hc *http.Client, w *workload, p *plan, lap []checked, ls loadStats) (map[string]metric, []string) {
	start := time.Now()
	pr := &probe{}
	var errs []string
	fail := func(s string) {
		if s != "" {
			errs = append(errs, s)
		}
	}
	var items []*item
	for i := range w.lap {
		if lap[i].sched == nil {
			fail(fmt.Sprintf("replay: request %d of the fixed list has no checked schedule", i))
			continue
		}
		e, seed := p.request(i)
		items = append(items, &item{e: &w.entries[e], seed: seed, served: lap[i].sched})
	}

	eng := engine.New(1, 4096)
	srv := server.New(server.Config{})
	h := srv.Handler()
	for _, it := range items {
		e := it.e
		// irtext → ir (parse is timed with the server below).
		it.parseAllocs = float64(pr.allocs(func() { mustParse(e.body) }))
		it.canonUs = 1000 * rotated(reps, func() func() { g := mustParse(e.body); return func() { g.Canonical() } })[0]

		// core + passes → listsched.
		lt, err := decomposed(pr, e, it.seed)
		if err != nil {
			fail(fmt.Sprintf("replay: %s: %v", e.name, err))
			continue
		}
		it.lt = lt
		fail(sameSchedule("decomposed path", it, lt.sched))

		// The legality gate, schedule.Validate then sim.Verify, and
		// robust.Schedule around a rung that hands back the served
		// schedule at once: the latter minus the former is robust's own
		// cost (clone, goroutine, deadline timer, the gate's copies), all
		// three timed in rotation on fresh parses of the same body.
		shellOf := func() *schedule.Schedule {
			g := mustParse(e.body)
			g.Seal()
			return &schedule.Schedule{Graph: g, Machine: e.mach, Placements: lt.sched.Placements, Comms: lt.sched.Comms}
		}
		served := robust.Rung{Name: "served", Run: func(_ context.Context, g *ir.Graph) (*schedule.Schedule, error) {
			return &schedule.Schedule{Graph: g, Machine: e.mach, Placements: lt.sched.Placements, Comms: lt.sched.Comms}, nil
		}}
		var gated *schedule.Schedule
		var gerr error
		gate := rotated(reps,
			func() func() { sh := shellOf(); return func() { _ = sh.Validate() } },
			func() func() { sh := shellOf(); return func() { _, _ = sim.Verify(sh, sim.NewMemory()) } },
			func() func() {
				g := mustParse(e.body)
				return func() {
					gated, _, gerr = robust.Schedule(ctx, g, e.mach, robust.Options{Timeout: serverTimeout, Verify: true, Ladder: []robust.Rung{served}})
				}
			})
		it.validateUs, it.verifyUs, it.gatedUs = 1000*gate[0], 1000*gate[1], 1000*gate[2]
		if gerr != nil {
			fail(fmt.Sprintf("replay: %s: the legality gate rejects the served schedule: %v", e.name, gerr))
		} else {
			fail(sameSchedule("robust.Schedule around the served schedule", it, gated))
		}

		// robust with the default ladder as the engine calls it, and the
		// convergence its first rung runs (core.ConvergeCtx on core's
		// pooled state, as served). Each runs once untimed, so pools and
		// caches are warm, then both are timed in rotation.
		seq := passes.ForMachine(e.mach.Name)
		var rs, cs *schedule.Schedule
		var rrep *robust.Report
		var rerr, cerr error
		full := func(g *ir.Graph) {
			rs, rrep, rerr = robust.Schedule(ctx, g, e.mach, robust.Options{Timeout: serverTimeout, Verify: true, Seed: it.seed})
		}
		full(mustParse(e.body))
		core.ConvergeCtx(ctx, mustParse(e.body), e.mach, seq, it.seed)
		path := rotated(pathReps,
			func() func() { g := mustParse(e.body); return func() { full(g) } },
			func() func() {
				g := mustParse(e.body)
				return func() { core.ConvergeCtx(ctx, g, e.mach, seq, it.seed) }
			})
		it.robustMs, it.convergeMs = path[0], path[1]
		// The served rung itself, core.ScheduleCtx on a pooled state.
		cs, _, cerr = core.ScheduleCtx(ctx, mustParse(e.body), e.mach, seq, it.seed)
		if rerr != nil || cerr != nil {
			fail(fmt.Sprintf("replay: %s: robust: %v, core: %v", e.name, rerr, cerr))
			continue
		}
		if rrep.Served != "convergent" {
			fail(fmt.Sprintf("replay: robust %s: served by rung %q", e.name, rrep.Served))
		}
		fail(sameSchedule("robust.Schedule", it, rs))
		fail(sameSchedule("core.ScheduleCtx", it, cs))
		// Allocations of the pooled convergence the served rung runs.
		cg := mustParse(e.body)
		it.convergeAllocs = float64(pr.allocs(func() { core.ConvergeCtx(ctx, cg, e.mach, seq, it.seed) }))

		// engine and server: one miss each, then hits on fresh parses and
		// a recorder, timed in rotation with irtext.Parse, which
		// server.self_us subtracts with the engine hit.
		newJob := func() engine.Job {
			g := mustParse(e.body)
			return engine.Job{ID: g.Name, Graph: g, Machine: e.mach,
				Opts: robust.Options{Timeout: serverTimeout, Verify: true, Seed: it.seed}}
		}
		res := eng.Schedule(ctx, newJob())
		fail(sameSchedule("engine miss", it, res.Schedule))
		var rec *httptest.ResponseRecorder
		var req *http.Request
		newReq := func() {
			rec = httptest.NewRecorder()
			req = httptest.NewRequest(http.MethodPost, schedulePath(e, it.seed), bytes.NewReader(e.body))
		}
		newReq()
		h.ServeHTTP(rec, req)
		hot := rotated(reps,
			func() func() { return func() { mustParse(e.body) } },
			func() func() { j := newJob(); return func() { res = eng.Schedule(ctx, j) } },
			func() func() { newReq(); return func() { h.ServeHTTP(rec, req) } })
		it.parseUs, it.engineUs, it.handleUs = 1000*hot[0], 1000*hot[1], 1000*hot[2]
		if !res.CacheHit {
			fail(fmt.Sprintf("replay: engine did not hit on %s", e.name))
		}
		fail(sameSchedule("engine hit", it, res.Schedule))
		j := newJob()
		it.engineAllocs = float64(pr.allocs(func() { eng.Schedule(ctx, j) }))
		_, hs, err := decodeSchedule(e, rec.Body.Bytes())
		if err != nil || rec.Code != http.StatusOK {
			fail(fmt.Sprintf("replay: handler on %s: status %d: %v", e.name, rec.Code, err))
		} else {
			fail(sameSchedule("server handler", it, hs))
		}
		newReq()
		it.handleAllocs = float64(pr.allocs(func() { h.ServeHTTP(rec, req) }))
	}

	// cluster: the gateway's own cost is its round trip minus the shard's,
	// both on cache hits over loopback.
	gst, err := startStack(ctx, hc, true)
	if err != nil {
		fail(fmt.Sprintf("replay: cluster stack: %v", err))
	} else {
		var jobs []job
		for _, base := range gst.shardBases() {
			for _, it := range items {
				jobs = append(jobs, job{base: base, e: it.e, seed: it.seed})
			}
		}
		if err := firstFailure(jobs, sendAll(ctx, hc, jobs)); err != nil {
			fail(fmt.Sprintf("replay: priming the cluster stack: %v", err))
		}
		direct := gst.shardBases()[0]
		for _, it := range items {
			var r response
			rt := rotated(reps,
				func() func() { return func() { post(ctx, hc, direct+schedulePath(it.e, it.seed), it.e.body) } },
				func() func() { return func() { r = post(ctx, hc, gst.entry+schedulePath(it.e, it.seed), it.e.body) } })
			it.directUs, it.gatewayUs = 1000*rt[0], 1000*rt[1]
			if err := r.failure(); err != nil {
				fail(fmt.Sprintf("replay: gateway %s: %v", it.e.name, err))
			} else if _, gs, err := decodeSchedule(it.e, r.body); err != nil {
				fail(fmt.Sprintf("replay: gateway %s: %v", it.e.name, err))
			} else {
				fail(sameSchedule("gateway", it, gs))
			}
		}
		if !ls.gateway {
			// A cold workload bypasses the gateway under load; its cluster
			// counters come from this replay stack.
			g := gst.gw.StatsSnapshot()
			ls.hedges, ls.reroutes, ls.doubleDeliveries = g.Hedges, g.Reroutes, g.DoubleDeliveries
		}
		gst.close()
	}

	// listsched scaling: the Fig 10 graphs at n=1000 and n=4000 (cold-vliw
	// sends them; other workloads measure them here as a probe).
	scale := map[int]float64{}
	for _, it := range items {
		if it.e.kernel == nil && it.lt.sched != nil {
			scale[it.e.size] = ms(it.lt.listsched)
		}
	}
	for _, n := range []int{1000, 4000} {
		if _, ok := scale[n]; ok {
			continue
		}
		e, err := randomEntry(n)
		if err != nil {
			fail(fmt.Sprintf("replay: probe rand%d: %v", n, err))
			continue
		}
		lt, err := decomposed(pr, &e, 1)
		if err != nil {
			fail(fmt.Sprintf("replay: probe rand%d: %v", n, err))
			continue
		}
		scale[n] = ms(lt.listsched)
	}

	m := layerMetrics(items, ls, scale, pr, time.Since(start))
	// A self time is a parent's median minus its children's; below zero,
	// the children were not measured as the parent runs them.
	for _, name := range []string{"robust.self_ms", "server.self_us", "cluster.self_us"} {
		if v := m[name].Value; v < 0 {
			fail(fmt.Sprintf("replay: %s is negative (%.4f): its child layers took longer alone than inside it", name, v))
		}
	}
	return m, errs
}

// layerMetrics averages the per-request measurements over the fixed list
// (each request weighs the same) and adds the load window's counters.
func layerMetrics(items []*item, ls loadStats, scale map[int]float64, pr *probe, wall time.Duration) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	n := float64(len(items))
	mean := func(f func(*item) float64) float64 {
		if n == 0 {
			return 0
		}
		s := 0.0
		for _, it := range items {
			s += f(it)
		}
		return s / n
	}
	put("irtext.parse_us", "us", mean(func(it *item) float64 { return it.parseUs }))
	var bytesTotal, parseTotal float64
	for _, it := range items {
		bytesTotal += float64(len(it.e.body))
		parseTotal += it.parseUs
	}
	put("irtext.parse_mb_s", "MB/s", safeDiv(bytesTotal, parseTotal)) // bytes per µs = MB/s
	put("irtext.allocs_per_op", "allocs", mean(func(it *item) float64 { return it.parseAllocs }))
	put("irtext.body_kb", "KB", mean(func(it *item) float64 { return float64(len(it.e.body)) / 1024 }))
	put("ir.canonical_us", "us", mean(func(it *item) float64 { return it.canonUs }))

	put("core.converge_ms", "ms", mean(func(it *item) float64 { return it.convergeMs }))
	put("core.normalize_ms", "ms", mean(func(it *item) float64 { return ms(it.lt.normalize) }))
	put("core.allocs_per_converge", "allocs", mean(func(it *item) float64 { return it.convergeAllocs }))
	for _, name := range passNames {
		put("passes."+name+"_ms", "ms", mean(func(it *item) float64 { return ms(it.lt.passes[name]) }))
	}

	var lsTotal, instrs float64
	for _, it := range items {
		lsTotal += ms(it.lt.listsched)
		instrs += float64(it.e.size)
	}
	put("listsched.run_ms", "ms", mean(func(it *item) float64 { return ms(it.lt.listsched) }))
	put("listsched.ns_per_instr", "ns", safeDiv(lsTotal*1e6, instrs))
	put("listsched.instrs", "count", safeDiv(instrs, n))
	put("listsched.run_1000_ms", "ms", scale[1000])
	put("listsched.run_4000_ms", "ms", scale[4000])
	put("listsched.scaling_4000_over_1000", "ratio", safeDiv(scale[4000], scale[1000]))
	put("listsched.allocs_per_op", "allocs", mean(func(it *item) float64 { return float64(it.lt.listschedAllocs) }))

	validate := mean(func(it *item) float64 { return it.validateUs })
	verify := mean(func(it *item) float64 { return it.verifyUs })
	robustMs := mean(func(it *item) float64 { return it.robustMs })
	put("robust.schedule_ms", "ms", robustMs)
	put("robust.self_ms", "ms", mean(func(it *item) float64 {
		return (it.gatedUs - it.validateUs - it.verifyUs) / 1000
	}))
	put("robust.attempts_per_req", "ratio", safeDiv(float64(ls.ladder.attempts), float64(ls.ladder.reports)))
	put("robust.degraded_frac", "ratio", safeDiv(float64(ls.ladder.degraded), float64(ls.ladder.reports)))
	put("robust.reports", "count", float64(ls.ladder.reports))
	put("schedule.validate_us", "us", validate)
	put("sim.verify_us", "us", verify)

	engineUs := mean(func(it *item) float64 { return it.engineUs })
	put("engine.schedule_us", "us", engineUs)
	put("engine.hit_ratio", "ratio", safeDiv(float64(ls.hits), float64(ls.lookups)))
	put("engine.lookups", "count", float64(ls.lookups))
	put("engine.shared", "count", float64(ls.shared))
	put("engine.collisions", "count", float64(ls.collisions))
	put("engine.allocs_per_hit", "allocs", mean(func(it *item) float64 { return it.engineAllocs }))

	handleUs := mean(func(it *item) float64 { return it.handleUs })
	put("server.handle_us", "us", handleUs)
	put("server.self_us", "us", handleUs-out["irtext.parse_us"].Value-engineUs)
	put("server.admission_wait_ms", "ms", ls.admissionWaitMs)
	put("server.resp_kb", "KB", ls.respKB)
	put("server.allocs_per_req", "allocs", mean(func(it *item) float64 { return it.handleAllocs }))
	put("server.shed", "count", float64(ls.shed))

	put("cluster.self_us", "us", mean(func(it *item) float64 { return it.gatewayUs - it.directUs }))
	put("cluster.hedges", "count", float64(ls.hedges))
	put("cluster.reroutes", "count", float64(ls.reroutes))
	put("cluster.double_deliveries", "count", float64(ls.doubleDeliveries))

	put("loadgen.late_p99_ms", "ms", ls.latePs99Ms)
	put("loadgen.late_samples", "count", float64(ls.lateSamples))
	put("trace.overhead_frac", "ratio", safeDiv(pr.measuring.Seconds(), wall.Seconds()))
	put("trace.replay_s", "s", wall.Seconds())
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
