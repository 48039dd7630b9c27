package server

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tokenBucket is a classic token-bucket rate limiter: tokens refill at Rate
// per second up to Burst, and each admitted request spends one. It reports
// how long a rejected caller should wait before retrying, which becomes the
// Retry-After header of a 429.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables the limiter
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &tokenBucket{rate: rate, burst: float64(burst), now: now}
	b.tokens = b.burst
	b.last = now()
	return b
}

// take spends one token if available; otherwise it reports how long until
// one accrues.
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	if b == nil || b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.tokens = math.Min(b.burst, b.tokens+b.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// Shed causes, as reported in 429 bodies, stats, and metric labels.
const (
	// ShedCauseRate: the server-wide token bucket was empty.
	ShedCauseRate = "rate"
	// ShedCauseTenantRate: the tenant's own token bucket was empty.
	ShedCauseTenantRate = "tenant-rate"
	// ShedCauseQuota: the tenant is at its per-tenant in-flight quota.
	ShedCauseQuota = "quota"
	// ShedCauseQueue: the tenant's class queue is full.
	ShedCauseQueue = "queue"
)

// admission bounds how much work the server holds at once, and divides that
// capacity fairly between tenants:
//
//	request ──► global token bucket ──► tenant bucket ──► tenant quota
//	        ──► class queue bound ──► [class FIFO] ─┐
//	                                                 ├─ DRR dequeuer ─► worker
//	                         [other class FIFOs] ───┘
//
// The global token bucket and the sum of class queue bounds play the roles
// the single bucket + queue played before tenancy; inside them, each tenant
// passes its own token bucket and in-flight quota, takes a slot in its
// class's bounded queue, and waits for a worker grant from a deficit-
// round-robin dequeuer that serves each class up to Weight grants per round.
// Every bound violation is shed explicitly with 429 + Retry-After and
// attributed to the offending tenant and cause, so overload isolates
// instead of collapsing, and a backlogged class can never starve another:
// any class with queued work is granted at least once per round.
type admission struct {
	bucket *tokenBucket // server-wide arrival smoother (backward compatible)
	now    func() time.Time

	mu       sync.Mutex
	classes  []*classState // DRR scan order
	byClass  map[string]*classState
	def      *classState // class for unknown tenants / no header
	assign   map[string]string
	tenants  map[string]*tenantState
	rr       int // DRR pointer into classes
	waiting  int // waiters queued across all classes
	free     int // free worker slots
	workers  int
	totalCap int // sum of class queue bounds

	// totalWait sums finished requests' waits for a worker slot; every
	// count lives in tenantState.
	totalWait time.Duration
}

// classState is one priority class's live admission state.
type classState struct {
	cfg     TenantClass
	held    int // admitted-but-unfinished requests in this class
	waiters []*waiter
	deficit int    // DRR deficit remaining this round
	granted uint64 // worker grants handed to this class
}

// tenantState is one tenant's live admission state; created lazily on first
// sight, bounded by maxTrackedTenants per server.
type tenantState struct {
	name     string
	class    *classState
	bucket   *tokenBucket
	inflight int // admitted-but-unfinished requests by this tenant

	// The only copy of every admission count: class and server totals are
	// sums over tenants, taken by stats. shedRate counts the global
	// bucket's sheds, shedTenantRate the tenant bucket's.
	accepted, shedQueue, shedRate, shedTenantRate, shedQuota uint64
	timeouts, completed, failed                              uint64
}

// waiter is one admitted request waiting for a worker grant. state moves
// 0 (pending) -> 1 (granted, ready closed) or 0 -> 2 (abandoned); the
// transition is decided under admission.mu, so a grant is never lost to a
// request that already gave up, and an abandoned waiter never consumes a
// slot.
type waiter struct {
	ready chan struct{}
	state int // guarded by admission.mu
}

// newAdmission builds the weighted-fair admission layer. Classes come from
// the tenant config; with none configured a lone default class inherits the
// server-wide bounds, which reproduces pre-tenancy behavior exactly.
func newAdmission(tc TenantConfig, maxQueue, workers int, rate float64, burst int, now func() time.Time) *admission {
	if maxQueue < 1 {
		maxQueue = 1
	}
	if workers < 1 {
		workers = 1
	}
	a := &admission{
		bucket:  newTokenBucket(rate, burst, now),
		now:     now,
		byClass: make(map[string]*classState),
		tenants: make(map[string]*tenantState),
		assign:  make(map[string]string, len(tc.Tenants)),
		free:    workers,
		workers: workers,
	}
	defName := tc.DefaultClass
	if defName == "" {
		defName = DefaultClassName
	}
	classes := append([]TenantClass(nil), tc.Classes...)
	found := false
	for _, c := range classes {
		if c.Name == defName {
			found = true
		}
	}
	if !found {
		// The fallback class for unknown tenants always exists; with no
		// tenancy configured at all it is the only class, and inherits the
		// server-wide bounds below — the exact pre-tenancy behavior.
		classes = append(classes, TenantClass{Name: defName})
	}
	for _, c := range classes {
		if c.Weight < 1 {
			c.Weight = 1
		}
		if c.MaxQueue < 1 {
			c.MaxQueue = maxQueue
		}
		if c.RatePerSec > 0 && c.Burst < 1 {
			c.Burst = int(math.Max(1, 2*c.RatePerSec))
		}
		cs := &classState{cfg: c}
		a.classes = append(a.classes, cs)
		a.byClass[c.Name] = cs
		a.totalCap += c.MaxQueue
	}
	a.def = a.byClass[defName]
	if a.def == nil { // misconfiguration defended at runtime: fall back
		a.def = a.classes[len(a.classes)-1]
	}
	for t, cl := range tc.Tenants {
		if _, ok := a.byClass[cl]; ok {
			a.assign[t] = cl
		}
	}
	if workers > a.totalCap {
		a.free = a.totalCap
		a.workers = a.totalCap
	}
	return a
}

// tenantFor resolves (lazily creating) the tenant state for a request
// identity. Empty means no header: the anonymous tenant in the default
// class. Callers hold a.mu.
func (a *admission) tenantFor(name string) *tenantState {
	if name == "" {
		name = AnonymousTenant
	}
	if t, ok := a.tenants[name]; ok {
		return t
	}
	cls := a.def
	if cn, ok := a.assign[name]; ok {
		cls = a.byClass[cn]
	}
	if len(a.tenants) >= maxTrackedTenants {
		// Cardinality bound hit: unseen tenants share their class's
		// overflow identity (still class-isolated, no longer per-tenant).
		oname := overflowTenant + ":" + cls.cfg.Name
		if t, ok := a.tenants[oname]; ok {
			return t
		}
		name = oname
	}
	t := &tenantState{name: name, class: cls}
	if cls.cfg.RatePerSec > 0 {
		t.bucket = newTokenBucket(cls.cfg.RatePerSec, cls.cfg.Burst, a.now)
	}
	a.tenants[name] = t
	return t
}

// admitGrant is one admitted request's hold on its class queue slot and
// tenant quota. release is idempotent: the slot is freed exactly once no
// matter how many paths (defer, panic unwinding, explicit) call it.
type admitGrant struct {
	a *admission
	t *tenantState
	c *classState

	mu       sync.Mutex
	released bool
}

// Tenant and Class name the grant for response attribution.
func (g *admitGrant) Tenant() string { return g.t.name }
func (g *admitGrant) Class() string  { return g.c.cfg.Name }

// release frees the queue slot and quota taken by admit, exactly once.
func (g *admitGrant) release() {
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	a := g.a
	a.mu.Lock()
	g.c.held--
	g.t.inflight--
	a.mu.Unlock()
}

// depth is how many admitted requests are currently held (waiting + running).
func (a *admission) depth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, c := range a.classes {
		n += c.held
	}
	return n
}

// admit applies, in order: the server-wide rate limiter, the tenant's own
// token bucket, the tenant's in-flight quota, and the tenant's class queue
// bound — all without blocking. On rejection it returns the shed cause and
// a Retry-After hint; on admission the caller owns a grant and must call
// release exactly once (it is safe to call more).
func (a *admission) admit(tenant string) (g *admitGrant, cause string, retryAfter time.Duration) {
	if ok, retry := a.bucket.take(); !ok {
		a.mu.Lock()
		a.tenantFor(tenant).shedRate++
		a.mu.Unlock()
		return nil, ShedCauseRate, retry
	}
	a.mu.Lock()
	t := a.tenantFor(tenant)
	c := t.class
	// The per-tenant bucket takes under a.mu: bucket contention is per
	// tenant and the critical section is tiny.
	if ok, retry := t.bucket.take(); !ok {
		t.shedTenantRate++
		a.mu.Unlock()
		return nil, ShedCauseTenantRate, retry
	}
	if q := c.cfg.MaxInflight; q > 0 && t.inflight >= q {
		t.shedQuota++
		a.mu.Unlock()
		return nil, ShedCauseQuota, time.Second
	}
	if c.held >= c.cfg.MaxQueue {
		t.shedQueue++
		a.mu.Unlock()
		// The class queue is full of in-flight work; suggest retrying
		// after a typical request's span rather than immediately.
		return nil, ShedCauseQueue, time.Second
	}
	c.held++
	t.inflight++
	t.accepted++
	a.mu.Unlock()
	return &admitGrant{a: a, t: t, c: c}, "", 0
}

// acquireWorker waits for a worker grant from the weighted-fair dequeuer,
// or gives up when done closes. Requests always join their class FIFO and
// take the next DRR grant — even with free slots — so ordering stays fair.
func (a *admission) acquireWorker(g *admitGrant, done <-chan struct{}) bool {
	w := &waiter{ready: make(chan struct{})}
	a.mu.Lock()
	g.c.waiters = append(g.c.waiters, w)
	a.waiting++
	a.dispatchLocked()
	a.mu.Unlock()
	select {
	case <-w.ready:
		return true
	case <-done:
		a.mu.Lock()
		if w.state == 0 {
			w.state = 2 // abandoned: the dispatcher will skip us
			a.mu.Unlock()
			return false
		}
		a.mu.Unlock()
		// Granted concurrently with our deadline: we own a slot; give it
		// back so the grant is not leaked.
		<-w.ready
		a.releaseWorker()
		return false
	}
}

// releaseWorker frees a worker slot and hands it to the next waiter.
func (a *admission) releaseWorker() {
	a.mu.Lock()
	a.free++
	a.dispatchLocked()
	a.mu.Unlock()
}

// dispatchLocked hands free worker slots to waiters by deficit round robin:
// the scan pointer stays on a class until its per-round deficit (= Weight)
// is spent or its queue empties, then moves on. Abandoned waiters are
// pruned without consuming deficit. Callers hold a.mu.
func (a *admission) dispatchLocked() {
	for a.free > 0 {
		w, c := a.nextWaiterLocked()
		if w == nil {
			return
		}
		a.free--
		c.granted++
		w.state = 1
		close(w.ready)
	}
}

// nextWaiterLocked picks the next waiter under DRR, or nil when no class
// has live waiters.
func (a *admission) nextWaiterLocked() (*waiter, *classState) {
	n := len(a.classes)
	for scanned := 0; scanned < n; {
		c := a.classes[a.rr]
		// Drop abandoned waiters at the head; they spend no deficit.
		for len(c.waiters) > 0 && c.waiters[0].state == 2 {
			c.waiters = c.waiters[1:]
			a.waiting--
		}
		if len(c.waiters) == 0 {
			c.deficit = 0 // an empty class forfeits the rest of its round
			a.rr = (a.rr + 1) % n
			scanned++
			continue
		}
		if c.deficit <= 0 {
			c.deficit = c.cfg.Weight // new round for this class
		}
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		a.waiting--
		c.deficit--
		if c.deficit <= 0 {
			a.rr = (a.rr + 1) % n // quantum spent: next class's turn
		}
		return w, c
	}
	return nil, nil
}

// countTimeout attributes a deadline expiry to the grant's tenant.
func (a *admission) countTimeout(g *admitGrant) {
	a.mu.Lock()
	g.t.timeouts++
	a.mu.Unlock()
}

// observe records one finished request's outcome against its tenant and
// its wait for a worker slot, and returns how many requests the tenant has
// now finished.
func (a *admission) observe(g *admitGrant, wait time.Duration, failed bool) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if failed {
		g.t.failed++
	} else {
		g.t.completed++
	}
	a.totalWait += wait
	return g.t.completed + g.t.failed
}

// TenantStats is one tenant's admission accounting in /stats.
type TenantStats struct {
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	// Accepted counts requests past every admission bound; the Shed*
	// counters split 429s by cause (rate covers global + tenant buckets).
	Accepted  uint64 `json:"accepted"`
	ShedRate  uint64 `json:"shedRate"`
	ShedQueue uint64 `json:"shedQueue"`
	ShedQuota uint64 `json:"shedQuota"`
	// Timeouts, Completed, Failed count admitted requests by outcome.
	Timeouts  uint64 `json:"timeouts"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// Inflight is the tenant's admitted-but-unfinished requests right now.
	Inflight int `json:"inflight"`

	// shedTenantRate is the tenant bucket's share of ShedRate, which the
	// per-cause shed metric reports apart.
	shedTenantRate uint64
}

// ClassStats is one priority class's admission accounting in /stats.
type ClassStats struct {
	Class  string `json:"class"`
	Weight int    `json:"weight"`
	// QueueDepth and QueueCapacity describe the class's bounded queue;
	// Waiting is how many of QueueDepth are still waiting for a worker.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	Waiting       int `json:"waiting"`
	// Granted counts worker grants the DRR dequeuer gave this class.
	Granted   uint64 `json:"granted"`
	Accepted  uint64 `json:"accepted"`
	ShedRate  uint64 `json:"shedRate"`
	ShedQueue uint64 `json:"shedQueue"`
	ShedQuota uint64 `json:"shedQuota"`
}

// AdmissionStats is a point-in-time snapshot of the admission counters.
type AdmissionStats struct {
	// Accepted counts requests admitted past rate limiter and queue bound.
	Accepted uint64 `json:"accepted"`
	// ShedQueue, ShedRate and ShedQuota count 429s by cause.
	ShedQueue uint64 `json:"shedQueue"`
	ShedRate  uint64 `json:"shedRate"`
	ShedQuota uint64 `json:"shedQuota"`
	// Timeouts counts admitted requests that hit their deadline.
	Timeouts uint64 `json:"timeouts"`
	// Completed and Failed count finished requests by outcome.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// QueueDepth and QueueCapacity describe the bounded queues, summed
	// across classes.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// MeanWaitMs is the mean time finished requests spent waiting for a
	// worker slot.
	MeanWaitMs float64 `json:"meanWaitMs"`
	// Classes and Tenants break the same accounting down per priority
	// class (config order) and per tenant (name order).
	Classes []ClassStats  `json:"classes,omitempty"`
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// stats sums the class and server totals from the per-tenant counts.
func (a *admission) stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AdmissionStats{QueueCapacity: a.totalCap}
	classAt := make(map[*classState]*ClassStats, len(a.classes))
	st.Classes = make([]ClassStats, len(a.classes))
	for i, c := range a.classes {
		st.QueueDepth += c.held
		st.Classes[i] = ClassStats{
			Class:         c.cfg.Name,
			Weight:        c.cfg.Weight,
			QueueDepth:    c.held,
			QueueCapacity: c.cfg.MaxQueue,
			Waiting:       len(c.waiters),
			Granted:       c.granted,
		}
		classAt[c] = &st.Classes[i]
	}
	for _, t := range a.tenants {
		ts := TenantStats{
			Tenant:         t.name,
			Class:          t.class.cfg.Name,
			Accepted:       t.accepted,
			ShedRate:       t.shedRate + t.shedTenantRate,
			ShedQueue:      t.shedQueue,
			ShedQuota:      t.shedQuota,
			Timeouts:       t.timeouts,
			Completed:      t.completed,
			Failed:         t.failed,
			Inflight:       t.inflight,
			shedTenantRate: t.shedTenantRate,
		}
		st.Tenants = append(st.Tenants, ts)
		cs := classAt[t.class]
		cs.Accepted += ts.Accepted
		cs.ShedRate += ts.ShedRate
		cs.ShedQueue += ts.ShedQueue
		cs.ShedQuota += ts.ShedQuota
		st.Accepted += ts.Accepted
		st.ShedRate += ts.ShedRate
		st.ShedQueue += ts.ShedQueue
		st.ShedQuota += ts.ShedQuota
		st.Timeouts += ts.Timeouts
		st.Completed += ts.Completed
		st.Failed += ts.Failed
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	if n := st.Completed + st.Failed; n > 0 {
		st.MeanWaitMs = float64(a.totalWait.Milliseconds()) / float64(n)
	}
	return st
}
