package gen

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/policies"
	"timedice/internal/rng"
)

// diffOptions narrows the sampling space to the TimeDice policies, the only
// ones with a production/reference split (verdict cache, kernel), so a
// second corpus drawn from it concentrates the differential on them.
func diffOptions() Options {
	opts := DefaultOptions()
	opts.Policies = []policies.Kind{policies.TimeDiceU, policies.TimeDiceW}
	return opts
}

// diffScenarios draws n scenarios from one seed with the given options.
func diffScenarios(n int, seed uint64, opts Options) []Scenario {
	r := rng.New(seed)
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Generate(r, opts)
	}
	return scs
}

// comparableCounters projects an engine.Counters to the subset that must be
// bit-identical across decision paths: everything except ArenaBytesTouched,
// FixpointIters and InterferenceTerms, which are path-dependent by design
// (the scan path visits every partition and computes every verdict fresh
// with full re-summation; the indexed path touches only what changed, skips
// the fixpoints of cache hits, and its kernel advances only crossed
// streams), and the wall-clock measurements, which are host observations.
func comparableCounters(c engine.Counters) engine.Counters {
	c.ArenaBytesTouched = 0
	c.FixpointIters = 0
	c.InterferenceTerms = 0
	c.PolicyTime = 0
	c.PolicySamples = 0
	c.PolicyLatency = nil
	return c
}

// TestIndexedScanDigestsMatch is the end-to-end exactness proof for the
// production decision path. Each scenario runs twice: under the default
// indexed stepping (arena view, verdict cache, search reuse, divisionless
// kernel) and under ScanStepping (full partition scans, AoS snapshot,
// uncached CandidateSearch, plain-division fixpoint). The two must produce
// byte-identical event streams, identical oracle verdicts, and identical
// deterministic engine counters (modulo the path-dependent ones, see
// comparableCounters). Any divergence in delivery order, idle notification,
// horizon selection, arena publication, a stale or wrong cached verdict, or
// the kernel's arithmetic flips at least one event and shows up as a digest
// mismatch. The cache may only save fixpoint work, never add it, and the
// reference must never consult it.
//
// Two corpora feed it: one over all policies (the event queue is
// policy-independent) and one over the TimeDice policies only, so the cache
// and the kernel get their own 1000 scenarios.
func TestIndexedScanDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	scs := append(diffScenarios(n, 0x5ca1ab1e, DefaultOptions()), diffScenarios(n, 0xd1ce, diffOptions())...)
	_, err := runner.Map(0, scs, func(i int, sc Scenario) (struct{}, error) {
		indexed, ist, err := RunRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d indexed: %v", i, err)
			return struct{}{}, nil
		}
		scan, sst, err := RunScanRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d scan: %v", i, err)
			return struct{}{}, nil
		}
		if id, sd := indexed.Digest(), scan.Digest(); id != sd {
			enc, _ := Encode(sc)
			t.Errorf("scenario %d: indexed digest %#x != scan %#x\nscenario: %s", i, id, sd, enc)
		}
		_, iv := indexed.Violations()
		_, sv := scan.Violations()
		if iv != sv {
			t.Errorf("scenario %d: indexed %d violations, scan %d", i, iv, sv)
		}
		if ic, sc2 := comparableCounters(ist.Counters), comparableCounters(sst.Counters); ic != sc2 {
			t.Errorf("scenario %d: counter divergence across decision paths:\nindexed: %+v\nscan:    %+v", i, ic, sc2)
		}
		if ii, si := ist.Counters.FixpointIters, sst.Counters.FixpointIters; ii > si {
			t.Errorf("scenario %d: indexed ran %d fixpoint iterations, scan %d: the cache may only skip work", i, ii, si)
		}
		if sst.CacheHits != 0 || sst.CacheMisses != 0 {
			t.Errorf("scenario %d: the scan reference consulted the verdict cache (%d hits, %d misses)",
				i, sst.CacheHits, sst.CacheMisses)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
