package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// record is one timed request.
type record struct {
	i       int
	entry   int
	seed    int64
	sent    time.Time
	done    time.Time
	latency time.Duration // from send to last body byte
	late    time.Duration // from the client's previous completion to this send
	failErr error         // transport error or non-200
	key     string        // dedupe key of a 200 body
}

// served is one distinct 200 body: identical bodies (timing fields masked)
// for the same entry are checked once and charged to every request that
// received them. The body itself waits in the spill file, so what the
// benchmark keeps for checking does not grow its own resident memory with
// the number of requests served.
type served struct {
	entry  int
	seed   int64
	off, n int64 // where the body sits in the spill file
	count  int
}

// collector gathers records and distinct bodies from the client.
type collector struct {
	mu      sync.Mutex
	recs    []record
	uniq    map[string]*served
	order   []string // keys in first-seen order
	lap0Key map[int]string
	spill   *os.File
	size    int64
	err     error // first spill write error
}

// newCollector spills distinct bodies to a temporary file in dir.
func newCollector(dir string) (*collector, error) {
	f, err := os.CreateTemp(dir, "perfbench-bodies-*")
	if err != nil {
		return nil, fmt.Errorf("spill file: %w", err)
	}
	return &collector{uniq: map[string]*served{}, lap0Key: map[int]string{}, spill: f}, nil
}

// close removes the spill file.
func (c *collector) close() {
	c.spill.Close()
	os.Remove(c.spill.Name())
}

// body reads a distinct body back from the spill file.
func (c *collector) body(u *served) ([]byte, error) {
	b := make([]byte, u.n)
	_, err := c.spill.ReadAt(b, u.off)
	return b, err
}

// client is one load-generating goroutine's reusable buffers.
type client struct {
	buf bytes.Buffer
	h   hash.Hash
}

func newClient() *client { return &client{h: sha256.New()} }

// add files a finished request. Hashing runs on the client goroutine after
// the request's latency is already recorded.
func (c *collector) add(cl *client, rec record, r response, lapLen int) {
	if err := r.failure(); err != nil {
		rec.failErr = err
	} else {
		rec.key = fmt.Sprintf("%d/%x", rec.entry, hashMasked(cl.h, r.body))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, rec)
	if rec.key == "" {
		return
	}
	if rec.i >= 0 && rec.i < lapLen {
		c.lap0Key[rec.i] = rec.key
	}
	if u, ok := c.uniq[rec.key]; ok {
		u.count++
		return
	}
	if _, err := c.spill.WriteAt(r.body, c.size); err != nil && c.err == nil {
		c.err = fmt.Errorf("spill write: %w", err)
	}
	c.uniq[rec.key] = &served{entry: rec.entry, seed: rec.seed, off: c.size, n: int64(len(r.body)), count: 1}
	c.size += int64(len(r.body))
	c.order = append(c.order, rec.key)
}

// timingKeys are the wall-clock fields of a /schedule body: the response's
// "elapsedMs" and each ladder attempt's "ms".
var timingKeys = [][]byte{[]byte(`"elapsedMs":`), []byte(`"ms":`)}

// hashMasked hashes body with the values of the timing fields left out, so
// bodies that differ only in timing hash equal.
func hashMasked(h hash.Hash, body []byte) []byte {
	h.Reset()
	for {
		k, key := -1, []byte(nil)
		for _, tk := range timingKeys {
			if i := bytes.Index(body, tk); i >= 0 && (k < 0 || i < k) {
				k, key = i, tk
			}
		}
		if k < 0 {
			h.Write(body)
			return h.Sum(nil)
		}
		h.Write(body[:k+len(key)])
		body = body[k+len(key):]
		j := bytes.IndexAny(body, ",\n}")
		if j < 0 {
			j = len(body)
		}
		body = body[j:]
	}
}

// loadResult is what one timed window produced.
type loadResult struct {
	p50, p99   float64   // request latency quantiles, ms (see windowStats)
	throughput float64   // completed req/s (see windowStats)
	late       []float64 // client lateness of every request, ms
}

// maxSlices is how many slices of whole laps a window is cut into at most;
// the window's figures come from its fastest fastShare of them.
const (
	maxSlices = 20
	fastShare = 0.1
)

// windowStats computes the window's latency quantiles and throughput. The
// window's complete laps are cut into up to maxSlices slices of whole laps,
// so every slice sends each listed request equally often, and each slice
// gets its own median and 99th percentile latency and its own throughput:
// its request count over the time from its first send to the next slice's
// first send (its last completion, for the last slice). Other tenants of a
// shared host slow the program in stretches and never speed it up, so each
// figure is taken from the window's faster slices: the fastShare quantile
// over slices of the slice latencies, and the 1-fastShare quantile of the
// slice throughputs. A stretch of interference that spares a tenth of the
// slices barely moves them, while a change to the program moves every
// slice. Requests after the last complete lap are checked and counted but
// left out of these figures; a window shorter than one lap is one slice.
// recs must be in request order.
func windowStats(recs []record, lapLen int) (p50, p99, throughput float64) {
	laps := len(recs) / lapLen
	k := min(maxSlices, laps)
	var bounds []int // request index where each slice starts, then the end
	if k == 0 {
		bounds = []int{0, len(recs)}
	} else {
		for j := 0; j <= k; j++ {
			bounds = append(bounds, j*laps/k*lapLen)
		}
	}
	var q50, q99, rps []float64
	for j := 0; j+1 < len(bounds); j++ {
		sl := recs[bounds[j]:bounds[j+1]]
		if len(sl) == 0 {
			continue
		}
		end := sl[len(sl)-1].done
		if bounds[j+1] < len(recs) {
			end = recs[bounds[j+1]].sent
		}
		var lat []float64
		for _, r := range sl {
			if r.failErr == nil {
				lat = append(lat, ms(r.latency))
			}
		}
		if len(lat) == 0 || !end.After(sl[0].sent) {
			continue
		}
		q50 = append(q50, quantile(lat, 0.50))
		q99 = append(q99, quantile(lat, 0.99))
		rps = append(rps, float64(len(lat))/end.Sub(sl[0].sent).Seconds())
	}
	return quantile(q50, fastShare), quantile(q99, fastShare), quantile(rps, 1-fastShare)
}

// runLoad offers the workload to base for the given duration from one
// client in a closed loop: it sends its next request as soon as the
// previous one has completed, until the window closes. One request in
// flight leaves the second CPU of a two-CPU host to the runtime (GC, the
// gateway's prober), so the figures measure the request path, not how the
// host schedules competing threads. Latency runs from send to last byte;
// lateness is the time from the previous completion to the next send (the
// client's own work in between, such as hashing the answer). The records
// go to c, in request order.
func runLoad(ctx context.Context, hc *http.Client, base string, w *workload, p *plan, dur time.Duration, c *collector) loadResult {
	deadline := time.Now().Add(dur)
	cl := newClient()
	var res loadResult
	var prev time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		e, seed := p.request(i)
		ent := &w.entries[e]
		sent := time.Now()
		r := postInto(ctx, hc, base+schedulePath(ent, seed), ent.body, &cl.buf)
		done := time.Now()
		rec := record{i: i, entry: e, seed: seed, sent: sent, done: done, latency: done.Sub(sent)}
		if !prev.IsZero() {
			rec.late = sent.Sub(prev)
		}
		res.late = append(res.late, ms(rec.late))
		c.add(cl, rec, r, len(w.lap))
		prev = done
	}
	res.p50, res.p99, res.throughput = windowStats(c.recs, len(w.lap))
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
