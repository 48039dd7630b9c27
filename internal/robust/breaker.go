package robust

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// BreakerState is the observable state of one circuit breaker.
type BreakerState string

const (
	// BreakerClosed lets every attempt through (the healthy state).
	BreakerClosed BreakerState = "closed"
	// BreakerOpen rejects attempts until the cooldown expires.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen lets exactly one probe attempt through; its outcome
	// decides between closing and re-opening with a longer cooldown.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerPolicy configures the per-rung circuit breakers of a BreakerSet.
// The zero value selects the defaults documented on each field.
type BreakerPolicy struct {
	// Failures is how many consecutive failures trip a closed breaker.
	// Default 3.
	Failures int
	// Cooldown is the open interval after the first trip. Each re-open from
	// half-open doubles it (exponential backoff); a successful probe resets
	// it. Default 1s.
	Cooldown time.Duration
	// MaxCooldown caps the backoff. Default 2m.
	MaxCooldown time.Duration
	// JitterFrac spreads each cooldown uniformly over ±JitterFrac of its
	// nominal value, so a fleet of breakers tripped together does not probe
	// in lockstep. Default 0.2; negative disables jitter.
	JitterFrac float64
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Failures <= 0 {
		p.Failures = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	if p.MaxCooldown <= 0 {
		p.MaxCooldown = 2 * time.Minute
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.2
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	return p
}

// breaker is the state machine for one key.
type breaker struct {
	state    BreakerState
	fails    int           // consecutive failures while closed
	cooldown time.Duration // current backoff interval
	openedAt time.Time
	until    time.Time // open rejects attempts until this instant
	probing  bool      // a half-open probe is in flight
	opens    uint64    // lifetime trips to open
	skips    uint64    // attempts rejected while open/half-open
}

// BreakerSet is a keyed family of circuit breakers. The resilient driver
// consults one breaker per (rung, scope) pair — see Options.Breakers — so a
// rung that persistently fails for one machine fingerprint is skipped there
// without being penalized anywhere else. A BreakerSet is safe for concurrent
// use; the zero value is not valid, use NewBreakerSet.
type BreakerSet struct {
	policy BreakerPolicy

	mu       sync.Mutex
	m        map[string]*breaker
	now      func() time.Time
	rng      *rand.Rand // guarded by mu
	observer func(key string, from, to BreakerState)
}

// SetObserver installs a hook called on every breaker state transition. The
// hook runs under the set's lock, so it must be fast and must not call back
// into the set — the server's observer only bumps a transition counter. A
// nil fn removes the hook.
func (s *BreakerSet) SetObserver(fn func(key string, from, to BreakerState)) {
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// State returns the breaker's current state without creating it; unknown
// keys report closed (the state a fresh breaker would start in).
func (s *BreakerSet) State(key string) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[key]; ok {
		return b.state
	}
	return BreakerClosed
}

// NewBreakerSet returns a breaker family with the given policy (zero fields
// take defaults).
func NewBreakerSet(policy BreakerPolicy) *BreakerSet {
	return newBreakerSet(policy, time.Now, rand.NewSource(rand.Int63()))
}

// newBreakerSet injects the clock and jitter source, for deterministic tests.
func newBreakerSet(policy BreakerPolicy, now func() time.Time, src rand.Source) *BreakerSet {
	return &BreakerSet{
		policy: policy.withDefaults(),
		m:      make(map[string]*breaker),
		now:    now,
		rng:    rand.New(src),
	}
}

func (s *BreakerSet) get(key string) *breaker {
	b, ok := s.m[key]
	if !ok {
		b = &breaker{state: BreakerClosed, cooldown: s.policy.Cooldown}
		s.m[key] = b
	}
	return b
}

// Jitter draws a wait uniformly from [lo, hi] (lo when hi < lo). It is the
// one jitter helper for breaker cooldowns, gateway re-dials and client
// retries, which all spread waits so callers that failed together do not
// retry in lockstep. rng is not locked: callers serialize their use of it.
func Jitter(rng *rand.Rand, lo, hi time.Duration) time.Duration {
	if hi < lo {
		return lo
	}
	return lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
}

// jittered returns d spread over ±JitterFrac. Callers hold s.mu.
func (s *BreakerSet) jittered(d time.Duration) time.Duration {
	spread := time.Duration(float64(d) * s.policy.JitterFrac)
	return Jitter(s.rng, d-spread, d+spread)
}

// Allow reports whether an attempt for key may run now. An open breaker
// whose cooldown has expired transitions to half-open and grants exactly one
// probe; everyone else is rejected until the probe reports its outcome.
func (s *BreakerSet) Allow(key string) bool {
	s.mu.Lock()
	b := s.get(key)
	from := b.state
	var allowed bool
	switch b.state {
	case BreakerClosed:
		allowed = true
	case BreakerOpen:
		if s.now().Before(b.until) {
			b.skips++
		} else {
			b.state = BreakerHalfOpen
			b.probing = true
			allowed = true
		}
	default: // half-open
		if b.probing {
			b.skips++
		} else {
			b.probing = true
			allowed = true
		}
	}
	s.notify(key, from, b.state)
	s.mu.Unlock()
	return allowed
}

// notify fires the observer for a state transition. Callers hold s.mu.
func (s *BreakerSet) notify(key string, from, to BreakerState) {
	if s.observer != nil && from != to {
		s.observer(key, from, to)
	}
}

// Record reports the outcome of an attempt Allow let through. Success closes
// the breaker and resets its backoff; failure counts toward the trip
// threshold (closed) or re-opens with doubled, jittered cooldown (half-open).
func (s *BreakerSet) Record(key string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(key)
	from := b.state
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
		b.cooldown = s.policy.Cooldown
		s.notify(key, from, b.state)
		return
	}
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= s.policy.Failures {
			s.trip(b, s.policy.Cooldown)
		}
	case BreakerHalfOpen:
		next := 2 * b.cooldown
		if next > s.policy.MaxCooldown {
			next = s.policy.MaxCooldown
		}
		s.trip(b, next)
	default: // open: a straggler attempt admitted before the trip; nothing to do
	}
	s.notify(key, from, b.state)
}

// trip moves b to open for a jittered cooldown. Callers hold s.mu.
func (s *BreakerSet) trip(b *breaker, cooldown time.Duration) {
	b.state = BreakerOpen
	b.fails = 0
	b.probing = false
	b.cooldown = cooldown
	b.openedAt = s.now()
	b.until = b.openedAt.Add(s.jittered(cooldown))
	b.opens++
}

// Cancel releases an attempt Allow let through whose outcome says nothing
// about the rung's health (the caller's context was cancelled mid-attempt).
// A half-open probe slot is handed back so the next request can probe.
func (s *BreakerSet) Cancel(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[key]; ok && b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// BreakerStat is a point-in-time snapshot of one breaker.
type BreakerStat struct {
	// Key is the breaker key (rung name + scope, see Options.BreakerScope).
	Key string `json:"key"`
	// State is the current state.
	State BreakerState `json:"state"`
	// Failures is the consecutive-failure count while closed.
	Failures int `json:"failures"`
	// Opens counts lifetime trips to open.
	Opens uint64 `json:"opens"`
	// Skips counts attempts rejected while open or half-open.
	Skips uint64 `json:"skips"`
	// Cooldown is the current backoff interval.
	Cooldown time.Duration `json:"cooldown"`
	// RetryIn is how long until an open breaker admits a probe (0 otherwise).
	RetryIn time.Duration `json:"retryIn"`
}

// Snapshot returns every breaker's state, sorted by key.
func (s *BreakerSet) Snapshot() []BreakerStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	out := make([]BreakerStat, 0, len(s.m))
	for key, b := range s.m {
		st := BreakerStat{
			Key:      key,
			State:    b.state,
			Failures: b.fails,
			Opens:    b.opens,
			Skips:    b.skips,
			Cooldown: b.cooldown,
		}
		if b.state == BreakerOpen && b.until.After(now) {
			st.RetryIn = b.until.Sub(now)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// breakerKey names the breaker for a rung within a scope.
func breakerKey(rung, scope string) string {
	if scope == "" {
		return rung
	}
	return rung + "@" + scope
}
