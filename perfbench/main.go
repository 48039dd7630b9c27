// Command perfbench is the repository's end-to-end benchmark. It builds a
// workload's inputs from a seed, serves them through in-process schedd
// (server.New) and schedgw (cluster.NewGateway) over loopback HTTP, checks
// every served schedule against an independent reference, and prints the
// end-to-end metrics; with --trace 1 it also replays the workload's request
// list through each layer's public functions and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload cold-raw --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when an output check or a workload self-check
// fails. See README.md for the workloads, metrics and what is left out.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the number of processors the benchmark runs on, whatever the
// host has, so the figures of hosts with more CPUs compare with those of the
// two-CPU reference box (README.md).
const procs = 2

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run())
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := buildWorkload(*wl, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rep, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "workload %s seed %d: attempted %d failed %d correct %v\n", w.name, *seed, rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// setupReps is how many times set-up runs; setup_s is the median. A cold
// set-up (one schedd, a listener and one /readyz round trip) takes about
// half a millisecond, where a single timing is mostly goroutine and
// loopback jitter, so it is repeated often enough for the median to hold
// still; a warm set-up primes two shards and takes about a second.
func setupReps(w *workload) int {
	if w.gateway {
		return 5
	}
	return 1001
}

// setUp builds the stack setupReps times, keeping the last one, and
// returns the set-up times. A warm workload primes every shard with the
// whole working set, so a hedged attempt at the next shard on the ring is
// a hit too; the priming jobs and answers are returned for checking.
func setUp(ctx context.Context, hc *http.Client, w *workload) (st *stack, times []float64, prime []job, primed []response, err error) {
	for r := 0; r < setupReps(w); r++ {
		if st != nil {
			st.close()
			hc.CloseIdleConnections()
		}
		runtime.GC() // every set-up starts from the same clean heap
		t0 := time.Now()
		if st, err = startStack(ctx, hc, w.gateway); err != nil {
			return nil, nil, nil, nil, err
		}
		if w.gateway {
			prime = prime[:0]
			for _, base := range st.shardBases() {
				for k := range w.entries {
					prime = append(prime, job{base: base, e: &w.entries[k], seed: warmSeed})
				}
			}
			primed = sendAll(ctx, hc, prime)
			if err := firstFailure(prime, primed); err != nil {
				st.close()
				return nil, nil, nil, nil, fmt.Errorf("priming: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, prime, primed, nil
}

// measure runs one workload: set-up, an untimed warm-up lap, the timed
// window, the output checks and self-checks, and (traced) the replay.
func measure(w *workload, seed int64, dur time.Duration, traced bool) (*report, error) {
	ctx := context.Background()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	p := newPlan(w, seed)

	st, setups, untimed, answers, err := setUp(ctx, hc, w)
	if err != nil {
		return nil, err
	}
	defer func() { st.close() }()

	// One untimed lap finishes lazy set-up (state pools, connections, the
	// gateway's latency window) without touching the timed request seeds.
	var warm []job
	for k, e := range w.lap {
		warm = append(warm, job{base: st.entry, e: &w.entries[e], seed: p.warmupSeed(k)})
	}
	warmed := sendAll(ctx, hc, warm)
	if err := firstFailure(warm, warmed); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	untimed, answers = append(untimed, warm...), append(answers, warmed...)

	col, err := newCollector(buildDir())
	if err != nil {
		return nil, err
	}
	defer col.close()
	before := snapshot(st)
	rss := startRSS()
	lr := runLoad(ctx, hc, st.entry, w, p, dur, col)
	rssMB := rss.peakMB()
	after := snapshot(st)
	if col.err != nil {
		return nil, col.err
	}

	// Output checks and self-checks, outside the timed window.
	oc, err := checkOutputs(w, col, untimed, answers)
	if err != nil {
		return nil, err
	}
	problems := oc.problems
	ls := loadStatsOf(w, col, oc, before, after, lr)
	problems = append(problems, selfCheck(w, ls)...)
	printSummary(w, col, ls)

	rep := &report{Attempted: len(col.recs), Failed: oc.failed, Metrics: map[string]metric{}}
	if rep.Attempted == 0 {
		problems = append(problems, "no request was attempted")
		rep.Attempted, rep.Failed = 1, 1
	}
	if traced {
		// The replay builds servers of its own. Dropping the load stack
		// lets its full caches be collected, so the replay's heap, and the
		// collections it forces, do not depend on the window's length.
		st.close()
		st = nil
		hc.CloseIdleConnections()
		m, errs := replay(ctx, hc, w, p, oc.lap, ls)
		problems = append(problems, errs...)
		rep.Metrics = m
	} else {
		rep.Metrics = map[string]metric{
			"setup_s":        {median(setups), "s"},
			"req_p50_ms":     {lr.p50, "ms"},
			"req_p99_ms":     {lr.p99, "ms"},
			"throughput_rps": {lr.throughput, "1/s"},
			"ok_frac":        {float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"},
			"cycles_total":   {float64(oc.cycles), "cycles"},
			"peak_rss_mb":    {rssMB, "MB"},
		}
	}
	for k, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", k, v.Value))
			rep.Metrics[k] = metric{0, v.Unit}
		}
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: INVALID:", p)
	}
	rep.Correct = len(problems) == 0
	return rep, nil
}

// printSummary writes each entry's request count and latency quartiles, and
// the window's cache and gateway counters, to standard error for reading a
// run by eye.
func printSummary(w *workload, col *collector, ls loadStats) {
	by := make([][]float64, len(w.entries))
	for _, r := range col.recs {
		if r.failErr == nil {
			by[r.entry] = append(by[r.entry], ms(r.latency))
		}
	}
	for k, xs := range by {
		fmt.Fprintf(os.Stderr, "perfbench: %-22s %5d requests, quartiles %9.3f %9.3f %9.3f ms\n",
			w.entries[k].name, len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
	}
	fmt.Fprintf(os.Stderr, "perfbench: lookups %d hits %d misses %d shared %d hedges %d reroutes %d late p99 %.2f ms\n",
		ls.lookups, ls.hits, ls.misses, ls.shared, ls.hedges, ls.reroutes, ls.latePs99Ms)
}

// buildDir is where run.sh keeps build outputs, inside the checkout; the
// spill file of served bodies lives there too.
func buildDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	_ = os.MkdirAll(dir, 0o755) // if this fails, creating the spill file reports it
	return dir
}
