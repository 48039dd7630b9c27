package robust

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testSet(p BreakerPolicy, c *fakeClock) *BreakerSet {
	return newBreakerSet(p, c.now, rand.NewSource(1))
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	c := newFakeClock()
	s := testSet(BreakerPolicy{Failures: 3, Cooldown: time.Second, JitterFrac: -1}, c)
	key := "convergent@m"
	for i := 0; i < 2; i++ {
		if !s.Allow(key) {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		s.Record(key, false)
	}
	// A success resets the consecutive count.
	if !s.Allow(key) {
		t.Fatal("closed breaker rejected attempt")
	}
	s.Record(key, true)
	for i := 0; i < 3; i++ {
		if !s.Allow(key) {
			t.Fatalf("breaker tripped after only %d post-reset failures", i)
		}
		s.Record(key, false)
	}
	if s.Allow(key) {
		t.Fatal("breaker still closed after reaching the failure threshold")
	}
	st := s.Snapshot()
	if len(st) != 1 || st[0].State != BreakerOpen || st[0].Opens != 1 || st[0].Skips != 1 {
		t.Fatalf("snapshot = %+v, want one open breaker with 1 open and 1 skip", st)
	}
	if st[0].RetryIn <= 0 || st[0].RetryIn > time.Second {
		t.Fatalf("RetryIn = %v, want in (0, 1s]", st[0].RetryIn)
	}
}

func TestBreakerHalfOpenProbeAndBackoff(t *testing.T) {
	c := newFakeClock()
	s := testSet(BreakerPolicy{Failures: 1, Cooldown: time.Second, MaxCooldown: 3 * time.Second, JitterFrac: -1}, c)
	key := "uas"
	s.Allow(key)
	s.Record(key, false) // trip: open for 1s

	if s.Allow(key) {
		t.Fatal("open breaker admitted an attempt before cooldown")
	}
	c.advance(time.Second + time.Millisecond)
	// Cooldown over: exactly one probe is admitted.
	if !s.Allow(key) {
		t.Fatal("expired breaker refused the half-open probe")
	}
	if s.Allow(key) {
		t.Fatal("second attempt admitted while the probe is in flight")
	}
	// Failed probe: re-open with doubled cooldown (2s).
	s.Record(key, false)
	c.advance(time.Second + time.Millisecond)
	if s.Allow(key) {
		t.Fatal("breaker re-admitted after 1s, backoff should have doubled to 2s")
	}
	c.advance(time.Second)
	if !s.Allow(key) {
		t.Fatal("breaker refused probe after doubled cooldown expired")
	}
	// Failed again: cooldown doubles to 4s but is capped at 3s.
	s.Record(key, false)
	c.advance(3*time.Second + time.Millisecond)
	if !s.Allow(key) {
		t.Fatal("breaker refused probe after capped cooldown expired")
	}
	// Successful probe closes it and resets the backoff to the initial 1s.
	s.Record(key, true)
	if !s.Allow(key) {
		t.Fatal("closed breaker rejected attempt after successful probe")
	}
	s.Record(key, false)
	st := s.Snapshot()
	if st[0].State != BreakerOpen || st[0].Cooldown != time.Second {
		t.Fatalf("after success+trip: %+v, want open with reset 1s cooldown", st[0])
	}
}

func TestBreakerCancelReleasesProbe(t *testing.T) {
	c := newFakeClock()
	s := testSet(BreakerPolicy{Failures: 1, Cooldown: time.Second, JitterFrac: -1}, c)
	key := "list"
	s.Allow(key)
	s.Record(key, false)
	c.advance(time.Second + time.Millisecond)
	if !s.Allow(key) {
		t.Fatal("probe refused")
	}
	// The probe's caller hit its own deadline: slot must come back.
	s.Cancel(key)
	if !s.Allow(key) {
		t.Fatal("probe slot not released after Cancel")
	}
	s.Record(key, true)
	if got := s.Snapshot()[0].State; got != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", got)
	}
}

func TestBreakerJitterStaysWithinBounds(t *testing.T) {
	c := newFakeClock()
	s := testSet(BreakerPolicy{Failures: 1, Cooldown: 10 * time.Second, JitterFrac: 0.2}, c)
	for i := 0; i < 50; i++ {
		key := "k"
		s.Allow(key)
		s.Record(key, false)
		st := s.Snapshot()[0]
		if st.RetryIn < 8*time.Second || st.RetryIn > 12*time.Second {
			t.Fatalf("iteration %d: jittered cooldown %v outside ±20%% of 10s", i, st.RetryIn)
		}
		// Reset to closed for the next round.
		c.advance(13 * time.Second)
		s.Allow(key)
		s.Record(key, true)
	}
}

func TestBreakerScopesAreIndependent(t *testing.T) {
	c := newFakeClock()
	s := testSet(BreakerPolicy{Failures: 1, Cooldown: time.Minute, JitterFrac: -1}, c)
	s.Allow(breakerKey("convergent", "raw16"))
	s.Record(breakerKey("convergent", "raw16"), false)
	if s.Allow(breakerKey("convergent", "raw16")) {
		t.Fatal("tripped scope still admitting")
	}
	if !s.Allow(breakerKey("convergent", "vliw4")) {
		t.Fatal("failure on raw16 tripped the vliw4 breaker")
	}
}

// TestJitterDraws pins the one jitter helper: every draw lies in [lo, hi],
// both ends are reachable, a one-point range returns it, and the gateway's
// re-dial and the client's retry draw exactly what their earlier private
// formulas drew from the same source.
func TestJitterDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[time.Duration]bool{}
	for i := 0; i < 2000; i++ {
		d := Jitter(rng, 5, 9)
		if d < 5 || d > 9 {
			t.Fatalf("Jitter(5, 9) = %v", d)
		}
		seen[d] = true
	}
	if len(seen) != 5 {
		t.Errorf("Jitter(5, 9) drew %d distinct values, want all 5", len(seen))
	}
	if d := Jitter(rng, 7, 7); d != 7 {
		t.Errorf("Jitter(7, 7) = %v", d)
	}

	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for _, d := range []time.Duration{1, 2, 10 * time.Millisecond, 3 * time.Second} {
		if got, want := Jitter(a, 1, d), time.Duration(b.Int63n(int64(d)))+1; got != want {
			t.Errorf("full jitter over %v: %v, earlier formula %v", d, got, want)
		}
	}
	for _, base := range []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 2 * time.Second} {
		half := base / 2
		if got, want := Jitter(a, half, base), half+time.Duration(b.Int63n(int64(half)+1)); got != want {
			t.Errorf("upper-half jitter over %v: %v, earlier formula %v", base, got, want)
		}
	}
}
