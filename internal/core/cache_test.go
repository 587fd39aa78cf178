package core

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// twoPartStates builds a small two-partition snapshot at the given instant:
// both active with budget remaining and periodic supply. The values are
// loose enough that the verdict for either partition passes comfortably.
func twoPartStates(now vtime.Time) []PartitionState {
	return []PartitionState{
		{Budget: vtime.MS(2), Period: vtime.MS(10), Remaining: vtime.MS(2),
			NextReplenish: now.Add(vtime.MS(10)), Active: true, Runnable: true},
		{Budget: vtime.MS(3), Period: vtime.MS(20), Remaining: vtime.MS(3),
			NextReplenish: now.Add(vtime.MS(20)), Active: true, Runnable: true},
	}
}

// verdictAt consults the production test front end (stateView.testVerdict)
// for partition h at instant now, re-hoisting the view's per-decision terms
// the way bind does at every decision.
func verdictAt(v *stateView, h int, now vtime.Time, res *SearchResult, c *Cache) bool {
	v.now, v.hoistN = now, 0
	return v.testVerdict(h, 0, res, c, nil)
}

// TestCachePrefixStaleness pins the per-partition invalidation rule: a stamp
// on partition j stales the cached verdict of every h >= j and leaves every
// h < j untouched, because the verdict for h reads only partitions 0..h.
func TestCachePrefixStaleness(t *testing.T) {
	now := vtime.Time(0)
	v := viewFromStates(twoPartStates(now), now)
	var c Cache

	stamps := []uint64{1, 1}
	c.begin(stamps, 2)
	var res SearchResult
	for h := 0; h < 2; h++ {
		verdictAt(v, h, now, &res, &c)
	}
	if res.Tests != 2 {
		t.Fatalf("cold cache ran %d tests, want 2", res.Tests)
	}

	// No new stamps: both verdicts must be served from cache.
	c.begin(stamps, 2)
	for h := 0; h < 2; h++ {
		verdictAt(v, h, now, &res, &c)
	}
	if res.Tests != 2 {
		t.Fatalf("warm cache ran %d tests total, want still 2", res.Tests)
	}

	// Stamp partition 1 only: verdict 0 stays cached, verdict 1 recomputes.
	stamps[1] = 2
	c.begin(stamps, 2)
	for h := 0; h < 2; h++ {
		verdictAt(v, h, now, &res, &c)
	}
	if res.Tests != 3 {
		t.Fatalf("after stamping partition 1: %d tests total, want 3 (only h=1 recomputes)", res.Tests)
	}

	// Stamp partition 0: both verdicts read partition 0, both recompute.
	stamps[0] = 3
	c.begin(stamps, 2)
	for h := 0; h < 2; h++ {
		verdictAt(v, h, now, &res, &c)
	}
	if res.Tests != 5 {
		t.Fatalf("after stamping partition 0: %d tests total, want 5 (both recompute)", res.Tests)
	}
}

// TestCacheHorizonExpiry pins the temporal half of validity: with no stamp
// movement at all, a PASS verdict is still only served while now is within
// its computed validity horizon — after that the fixpoint must be rerun.
func TestCacheHorizonExpiry(t *testing.T) {
	now := vtime.Time(0)
	v := viewFromStates(twoPartStates(now), now)
	var c Cache
	stamps := []uint64{1, 1}

	c.begin(stamps, 2)
	var res SearchResult
	ok := verdictAt(v, 1, now, &res, &c)
	if !ok || res.Tests != 1 {
		t.Fatalf("cold verdict: ok=%v tests=%d, want pass in 1 test", ok, res.Tests)
	}
	horizon := c.entries[1].validUntil
	if horizon <= now || horizon == vtime.Infinity {
		t.Fatalf("PASS validity horizon = %v, want finite instant after now", horizon)
	}

	// One instant before the horizon: still a hit.
	c.begin(stamps, 2)
	verdictAt(v, 1, horizon-1, &res, &c)
	if res.Tests != 1 {
		t.Fatalf("within horizon: %d tests total, want still 1", res.Tests)
	}
	// The horizon instant itself is inclusive.
	c.begin(stamps, 2)
	verdictAt(v, 1, horizon, &res, &c)
	if res.Tests != 1 {
		t.Fatalf("at horizon: %d tests total, want still 1", res.Tests)
	}
	// Past it: recompute.
	c.begin(stamps, 2)
	verdictAt(v, 1, horizon+1, &res, &c)
	if res.Tests != 2 {
		t.Fatalf("past horizon: %d tests total, want 2", res.Tests)
	}
}

// TestCacheFailForever pins the FAIL rule: a failing verdict only becomes
// stale through invalidation, never through the passage of time, because the
// busy interval can only grow as time advances within an epoch.
func TestCacheFailForever(t *testing.T) {
	now := vtime.Time(0)
	states := twoPartStates(now)
	// Make partition 1 hopeless: deadline before its own remaining budget
	// plus the higher-priority interference can complete.
	states[1].NextReplenish = now.Add(vtime.MS(4))
	v := viewFromStates(states, now)

	var c Cache
	stamps := []uint64{1, 1}
	c.begin(stamps, 2)
	var res SearchResult
	if ok := verdictAt(v, 1, now, &res, &c); ok {
		t.Fatal("verdict unexpectedly passed; fixture needs a tighter deadline")
	}
	if got := c.entries[1].validUntil; got != vtime.Infinity {
		t.Fatalf("FAIL validUntil = %v, want Infinity", got)
	}

	// Arbitrarily far in the future, same epoch: still served from cache.
	c.begin(stamps, 2)
	verdictAt(v, 1, now.Add(vtime.MS(1_000_000)), &res, &c)
	if res.Tests != 1 {
		t.Fatalf("far-future FAIL lookup ran %d tests total, want still 1", res.Tests)
	}

	// A stamp anywhere in 0..1 drops it.
	stamps[0] = 2
	c.begin(stamps, 2)
	verdictAt(v, 1, now, &res, &c)
	if res.Tests != 2 {
		t.Fatalf("after stamp: %d tests total, want 2", res.Tests)
	}
}

// TestCacheHitMissAccounting pins the contract behind the /metrics cache
// counters: hits and misses partition the consultations exactly (Hits +
// Misses == consultations made, after any call sequence), every miss runs
// exactly one Algorithm-3 computation, and Reset zeroes both.
func TestCacheHitMissAccounting(t *testing.T) {
	now := vtime.Time(0)
	v := viewFromStates(twoPartStates(now), now)
	var c Cache

	stamps := []uint64{1, 1}
	var lookups int64
	var res SearchResult
	consult := func(h int, at vtime.Time) {
		c.begin(stamps, 2)
		verdictAt(v, h, at, &res, &c)
		lookups++
	}

	// Cold, warm, stale, and far-future consultations in one sequence.
	consult(0, now)                          // miss (cold)
	consult(1, now)                          // miss (cold)
	consult(0, now)                          // hit
	consult(1, now)                          // hit
	stamps[1] = 2                            // stale partition 1 only
	consult(0, now)                          // hit (prefix below the stamp)
	consult(1, now)                          // miss (stamped)
	consult(1, now.Add(vtime.MS(1_000_000))) // miss (past validUntil)

	if c.Hits() != 3 || c.Misses() != 4 {
		t.Fatalf("hits %d, misses %d; want 3 and 4", c.Hits(), c.Misses())
	}
	if c.Hits()+c.Misses() != lookups {
		t.Fatalf("hits %d + misses %d != the %d consultations made", c.Hits(), c.Misses(), lookups)
	}
	if c.Misses() != res.Tests {
		t.Fatalf("misses %d, but %d Algorithm-3 computations ran — each miss must compute exactly once", c.Misses(), res.Tests)
	}

	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Reset must zero hits and misses")
	}
}

// TestPolicyStatsCacheMisses pins the policy-level wiring on a real run:
// with the verdict cache enabled, every Algorithm-3 computation the policy
// reports (SchedTests) was a cache miss, so Stats.CacheMisses ==
// Stats.SchedTests and the lookup total is SchedTests + CacheHits.
func TestPolicyStatsCacheMisses(t *testing.T) {
	built, err := workload.TableIBase().Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := NewPolicy(WithRand(rng.New(7)))
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunFor(2 * vtime.Second)

	st := pol.Stats()
	if st.Decisions == 0 || st.CacheHits == 0 {
		t.Fatalf("run too quiet to exercise the cache: %+v", st)
	}
	if st.CacheMisses != st.SchedTests {
		t.Fatalf("CacheMisses = %d, SchedTests = %d: with the cache on, every computation must be a miss", st.CacheMisses, st.SchedTests)
	}
	if st.CacheHits+st.CacheMisses == 0 {
		t.Fatal("no lookups recorded")
	}
}
