package server

// Conformance tests for the /metrics endpoint: the text format parses, every
// line belongs to a HELP/TYPE-announced family, counters never move
// backwards between scrapes, the family list matches the golden file under
// testdata/ (so new series are added deliberately), concurrent scraping
// under load is race-free, and the endpoint stays servable during drain —
// that is how an operator watches drain progress.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// scrapeMetrics GETs /metrics and returns the parsed samples by series name.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}

	samples := make(map[string]float64)
	announced := make(map[string]bool) // families with HELP+TYPE seen
	typed := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			announced[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("TYPE line %q names unknown type", line)
			}
			typed[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		// Sample line: name or name{labels}, space, float value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample line %q: bad value: %v", line, err)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("series %q rendered twice", series)
		}
		samples[series] = v
		fam := series
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		fam = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(fam, "_bucket"), "_sum"), "_count")
		if !announced[fam] || !typed[fam] {
			t.Fatalf("series %q not announced by HELP+TYPE (family %q)", series, fam)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestMetricsConformance(t *testing.T) {
	s := New(Config{Seed: 2002, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive traffic of every flavor so the event-driven series exist:
	// success, traced success, and a parse failure.
	body := ddgFor(t, "vvmul", 4)
	if code, _ := post(t, ts, "machine=raw4", body); code != 200 {
		t.Fatalf("schedule = %d", code)
	}
	if code, _ := post(t, ts, "machine=raw4&trace=1&seed=7", body); code != 200 {
		t.Fatalf("traced schedule = %d", code)
	}
	if code, _ := post(t, ts, "machine=raw4", "not a graph"); code != 400 {
		t.Fatalf("bad body = %d", code)
	}

	first := scrapeMetrics(t, ts)
	for _, want := range []string{
		`schedd_tenant_accepted_total{tenant="anonymous"}`,
		`schedd_tenant_requests_total{tenant="anonymous",outcome="ok"}`,
		`schedd_cache_events_total{kind="miss"}`,
		"schedd_traced_requests_total",
		`schedd_request_seconds_count{outcome="ok",class="default",tenant="~overflow"}`,
		"schedd_ready",
		"schedd_inflight",
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("scrape missing %s", want)
		}
	}
	if got := first["schedd_traced_requests_total"]; got != 1 {
		t.Errorf("schedd_traced_requests_total = %g, want 1", got)
	}
	if got := first[`schedd_tenant_accepted_total{tenant="anonymous"}`]; got != 3 {
		t.Errorf(`schedd_tenant_accepted_total{tenant="anonymous"} = %g, want 3`, got)
	}

	// More traffic, then the monotonicity check: no counter goes backwards.
	if code, _ := post(t, ts, "machine=raw4", body); code != 200 {
		t.Fatalf("second schedule = %d", code)
	}
	second := scrapeMetrics(t, ts)
	for series, v1 := range first {
		if !strings.Contains(series, "_total") && !strings.Contains(series, "_count") &&
			!strings.Contains(series, "_sum") && !strings.Contains(series, "_bucket") {
			continue // gauges may move either way
		}
		v2, ok := second[series]
		if !ok {
			t.Errorf("series %s vanished between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}
	if second[`schedd_cache_events_total{kind="hit"}`] < 1 {
		t.Errorf("warm rerun recorded no cache hit")
	}
}

// TestMetricsConcurrentScrape scrapes while scheduling from many goroutines;
// run under -race this pins that scrape-time syncing and event-driven
// observation never race.
func TestMetricsConcurrentScrape(t *testing.T) {
	s := New(Config{Seed: 2002, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := ddgFor(t, "vvmul", 4)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				postCode(ts, fmt.Sprintf("machine=raw4&seed=%d&trace=1", i*10+j), body)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics = %d under load", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if got := scrapeMetrics(t, ts)["schedd_traced_requests_total"]; got != 20 {
		t.Errorf("schedd_traced_requests_total = %g, want 20", got)
	}
}

// TestMetricsGoldenFamilies pins the registered metric names, kinds, and
// label sets. Regenerate deliberately with -update when adding a series.
func TestMetricsGoldenFamilies(t *testing.T) {
	s := New(Config{Logf: func(string, ...any) {}})
	var b strings.Builder
	for _, f := range s.metrics.reg.Families() {
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
		if len(f.LabelNames) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(f.LabelNames, ","))
		}
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "metrics_families.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("metric families changed; update %s deliberately with -update.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestMetricsServableDuringDrain is the drain-path regression test: a
// draining server still answers /metrics with 200, reports schedd_draining=1,
// and exposes the schedd_inflight gauge — the pair an operator watches to
// follow drain progress.
func TestMetricsServableDuringDrain(t *testing.T) {
	s := New(Config{Seed: 2002, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := post(t, ts, "machine=raw4", ddgFor(t, "vvmul", 4)); code != 200 {
		t.Fatalf("schedule = %d", code)
	}
	s.StartDrain()

	// New scheduling work is refused...
	if code, _ := post(t, ts, "machine=raw4", ddgFor(t, "vvmul", 4)); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /schedule = %d, want 503", code)
	}
	// ...but the scrape still works and reports the drain.
	got := scrapeMetrics(t, ts)
	if got["schedd_draining"] != 1 {
		t.Errorf("schedd_draining = %g, want 1", got["schedd_draining"])
	}
	if _, ok := got["schedd_inflight"]; !ok {
		t.Errorf("draining scrape missing schedd_inflight")
	}
	if got["schedd_ready"] != 0 {
		t.Errorf("schedd_ready = %g while draining, want 0", got["schedd_ready"])
	}
}

// TestTenantShedSeriesBoundedByAdmission is the cardinality regression test
// for schedd_tenant_shed_total: a flood of distinct tenant names may mint no
// more shed series than admission tracks tenants, so the family inherits
// admission's tenant cap instead of growing with every header value.
func TestTenantShedSeriesBoundedByAdmission(t *testing.T) {
	s := New(Config{RatePerSec: 1e-9, Burst: 1, Logf: func(string, ...any) {}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const names = 3000
	shed := 0
	for i := 0; i < names; i++ {
		code, _, _, err := tenantPost(ts, fmt.Sprintf("t-%04d", i), "machine=raw4", "")
		if err != nil {
			t.Fatal(err)
		}
		if code == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed < names-1 {
		t.Fatalf("%d of %d requests shed, want all but the first", shed, names)
	}

	series := make(map[string]bool)
	for name := range scrapeMetrics(t, ts) {
		if rest, ok := strings.CutPrefix(name, `schedd_tenant_shed_total{tenant="`); ok {
			series[rest[:strings.IndexByte(rest, '"')]] = true
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 || len(series) > len(st.Admission.Tenants) {
		t.Errorf("schedd_tenant_shed_total has %d tenant label values, /stats tracks %d tenants",
			len(series), len(st.Admission.Tenants))
	}
}
