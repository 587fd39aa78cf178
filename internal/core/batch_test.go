package core

import (
	"testing"

	"timedice/internal/bitset"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// viewFromStates builds a stateView (plus its ready bitset) holding exactly
// the same facts as the AoS snapshot, the way the engine arenas would.
func viewFromStates(states []PartitionState, now vtime.Time) *stateView {
	n := len(states)
	v := &stateView{
		remaining: make([]vtime.Duration, n),
		budget:    make([]vtime.Duration, n),
		period:    make([]vtime.Duration, n),
		deadline:  make([]vtime.Time, n),
		supply:    make([]vtime.Time, n),
		recip:     make([]vtime.Reciprocal, n),
		ready:     bitset.New(n),
		now:       now,
		off:       make([]vtime.Duration, n),
		remPrefix: make([]vtime.Duration, n),
		narr:      make([]vtime.Duration, n),
	}
	for i := range states {
		s := &states[i]
		v.remaining[i] = s.Remaining
		v.budget[i] = s.Budget
		v.period[i] = s.Period
		v.deadline[i] = s.NextReplenish
		v.supply[i] = s.NextSupply
		v.recip[i] = vtime.NewReciprocal(s.Period)
		if s.Runnable {
			v.ready.Set(i)
		}
	}
	return v
}

// randomStates generates a priority-ordered system snapshot with a mix of
// active/inactive, runnable/blocked partitions, supply anchors both set and
// unset (the NextSupply==0 fallback), and occasional sporadic early chunks.
func randomStates(r *rng.Rand, n int, now vtime.Time) []PartitionState {
	states := make([]PartitionState, n)
	for i := range states {
		period := vtime.Duration(1+r.Intn(50)) * vtime.Millisecond
		budget := vtime.Duration(1+r.Intn(int(period/vtime.Millisecond))) * vtime.Millisecond / 2
		if budget <= 0 {
			budget = vtime.Millisecond / 2
		}
		st := PartitionState{Budget: budget, Period: period}
		// Deadline lands somewhere in (now, now+period].
		st.NextReplenish = now.Add(vtime.Duration(1 + r.Intn(int(period))))
		switch r.Intn(4) {
		case 0: // inactive
		case 1: // active, blocked (no ready work)
			st.Remaining = vtime.Duration(1 + r.Intn(int(budget)))
		default: // active and runnable
			st.Remaining = vtime.Duration(1 + r.Intn(int(budget)))
			st.Runnable = true
		}
		st.Active = st.Remaining > 0
		switch r.Intn(3) {
		case 0:
			st.NextSupply = 0 // unset: falls back to NextReplenish
		case 1:
			st.NextSupply = st.NextReplenish
		default: // sporadic chunk strictly before the deadline
			st.NextSupply = now.Add(vtime.Duration(1 + r.Intn(int(st.NextReplenish.Sub(now)))))
		}
		states[i] = st
	}
	return states
}

// passHorizon is the from-scratch oracle for horizonOf: the minimum of the
// deadline slack (deadline − cur) and, over every stream the test charges
// (hp(Π_h), plus Π_h's own when inactive), the gap from the busy-interval end
// cur to that stream's next arrival at or after cur, recomputed with plain
// division.
func passHorizon(states []PartitionState, h int, now vtime.Time, cur, deadline vtime.Duration) vtime.Duration {
	horizon := deadline - cur
	for j := 0; j <= h; j++ {
		if j == h && states[h].Active {
			break
		}
		st := &states[j]
		o := st.supplyTime().Sub(now)
		// Arrivals land at o + k·T and CeilDiv counts those strictly before cur.
		arr := o + vtime.Duration(vtime.CeilDiv(cur-o, st.Period))*st.Period
		if gap := arr - cur; gap < horizon {
			horizon = gap
		}
	}
	return horizon
}

// TestViewMatchesAoS is the per-function differential pin for the production
// path: on random snapshots, the view fixpoint (the divisionless incremental
// kernel) and its validity horizon, the cached candidate search, and the
// lottery selection must reproduce the uncached AoS reference bit-for-bit —
// same verdicts, same candidates, same iteration counts, same random draws.
// The cached search runs twice under the same stamps: the cold run must
// compute exactly the reference's tests, and the warm run must serve every
// one of them from the cache with the same outcome. A fixpointIterHook
// additionally re-sums the interference from scratch with plain division at
// every kernel iteration and requires the incrementally maintained sum to
// match exactly.
func TestViewMatchesAoS(t *testing.T) {
	r := rng.New(0xd1ce)
	now := vtime.Time(17 * vtime.Millisecond)
	w := DefaultQuantum

	// The hook sees every kernel iteration of the trial's fixpoints,
	// including those run inside the searches below.
	var hookStates []PartitionState
	fixpointIterHook = func(h int, cur, sum vtime.Duration) {
		m := h
		if !hookStates[h].Active {
			m = h + 1
		}
		var ref vtime.Duration
		for j := 0; j < m; j++ {
			o := hookStates[j].supplyTime().Sub(now)
			ref += streamInterference(cur, o, hookStates[j].Period, hookStates[j].Budget)
		}
		if sum != ref {
			t.Fatalf("h=%d cur=%v: incremental sum %v, re-summed reference %v", h, cur, sum, ref)
		}
	}
	defer func() { fixpointIterHook = nil }()

	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(24)
		states := randomStates(r, n, now)
		hookStates = states
		v := viewFromStates(states, now)

		// Per-partition fixpoint verdicts.
		v.extend(n - 1)
		for h := 0; h < n; h++ {
			aok, acur, adl, acost := schedFixpoint(states, h, now, w)
			vok, vcur, vdl, vmin, vcost := v.fixpoint(h, w)
			if aok != vok || acur != vcur || adl != vdl {
				t.Fatalf("trial %d h=%d: fixpoint (%v,%v,%v) vs view (%v,%v,%v)",
					trial, h, aok, acur, adl, vok, vcur, vdl)
			}
			if acost.iters != vcost.iters {
				t.Fatalf("trial %d h=%d: reference ran %d iterations, kernel %d — the kernel must replay the iteration sequence exactly",
					trial, h, acost.iters, vcost.iters)
			}
			if vcost.terms > acost.terms {
				t.Fatalf("trial %d h=%d: kernel evaluated %d interference terms, reference %d — incremental advance must never exceed full re-summation",
					trial, h, vcost.terms, acost.terms)
			}
			if aok {
				ah := passHorizon(states, h, now, acur, adl)
				vh := horizonOf(vcur, vdl, vmin)
				if ah != vh {
					t.Fatalf("trial %d h=%d: passHorizon %v vs view %v", trial, h, ah, vh)
				}
			}
		}

		// Cached search against the uncached reference: a cold run computes
		// every test the reference does (each lookup misses), and a warm run
		// under the same stamps serves all of them from the cache.
		ares := CandidateSearch(states, now, w, nil)
		stamps := make([]uint64, n)
		for i := range stamps {
			stamps[i] = uint64(r.Intn(5))
		}
		var c Cache
		c.begin(stamps, n)
		vres := v.search(w, nil, &c)
		compareSearch(t, trial, "cold", ares, vres)
		if vres.Tests != ares.Tests || vres.FixpointIters != ares.FixpointIters {
			t.Fatalf("trial %d cold: view ran %d tests / %d iterations, reference %d / %d",
				trial, vres.Tests, vres.FixpointIters, ares.Tests, ares.FixpointIters)
		}
		if vres.InterferenceTerms > ares.InterferenceTerms {
			t.Fatalf("trial %d cold: view evaluated %d interference terms, reference %d",
				trial, vres.InterferenceTerms, ares.InterferenceTerms)
		}
		c.begin(stamps, n)
		warm := v.search(w, nil, &c)
		compareSearch(t, trial, "warm", ares, warm)
		if warm.Tests != 0 || c.Hits() != ares.Tests || c.Hits()+c.Misses() != 2*ares.Tests {
			t.Fatalf("trial %d warm: %d tests, cache %d hits / %d misses; want 0 tests and %d hits / %d misses",
				trial, warm.Tests, c.Hits(), c.Misses(), ares.Tests, ares.Tests)
		}

		// Selection: identical seeds must yield identical choices in both
		// modes (weighted exercises the float weight arithmetic).
		if len(ares.Candidates) > 0 || ares.IdleOK {
			for _, mode := range []SelectionMode{SelectWeighted, SelectUniform} {
				seed := uint64(trial)*2 + uint64(mode)
				got := v.selectFrom(vres, mode, rng.New(seed), nil)
				want := Select(states, ares, now, mode, rng.New(seed), nil)
				if got != want {
					t.Fatalf("trial %d mode %v: selectFrom = %d, Select = %d", trial, mode, got, want)
				}
			}
		}
	}
}

// compareSearch requires the view search outcome b to match the reference
// outcome a: same candidates in the same order, same idle eligibility.
func compareSearch(t *testing.T, trial int, ctx string, a, b SearchResult) {
	t.Helper()
	if a.IdleOK != b.IdleOK || len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("trial %d %s: AoS (cand %d, idle %v) vs view (cand %d, idle %v)",
			trial, ctx, len(a.Candidates), a.IdleOK, len(b.Candidates), b.IdleOK)
	}
	for k := range a.Candidates {
		if a.Candidates[k] != b.Candidates[k] {
			t.Fatalf("trial %d %s: candidate[%d] = %d vs %d", trial, ctx, k, a.Candidates[k], b.Candidates[k])
		}
	}
}

// TestViewExtendLazy pins the amortization property: a search that tests only
// a prefix of the system must hoist only that prefix (plus the candidates'
// own entries), never all P.
func TestViewExtendLazy(t *testing.T) {
	const n = 4096
	now := vtime.Time(5 * vtime.Millisecond)
	states := make([]PartitionState, n)
	for i := range states {
		states[i] = PartitionState{
			Budget:        vtime.Millisecond,
			Period:        20 * vtime.Millisecond,
			NextReplenish: now.Add(10 * vtime.Millisecond),
		}
	}
	// Only partitions 3 and 7 runnable: the search tests h in [3,7) and then
	// idle coverage h in [7,n) — but a failing test at h=8 stops it early.
	states[3].Remaining = vtime.Millisecond
	states[3].Runnable = true
	states[3].Active = true
	states[7].Remaining = vtime.Millisecond
	states[7].Runnable = true
	states[7].Active = true
	// Make h=8 fail: inactive with an already-passed effective deadline is
	// impossible (deadline includes +Period), so overload it instead — huge
	// remaining demand above it cannot fit. Simplest: give h=8 a deadline so
	// tight the base term misses it.
	states[8].Remaining = 9 * vtime.Millisecond
	states[8].Active = true
	states[8].NextReplenish = now.Add(2 * vtime.Millisecond)
	v := viewFromStates(states, now)
	var c Cache
	c.begin(make([]uint64, n), n)
	res := v.search(DefaultQuantum, nil, &c)
	if len(res.Candidates) != 2 || res.IdleOK {
		t.Fatalf("unexpected search result: %+v", res)
	}
	if v.hoistN > 16 {
		t.Fatalf("hoistN = %d after a prefix-only search; lazy extension is broken", v.hoistN)
	}
	aos := CandidateSearch(states, now, DefaultQuantum, nil)
	compareSearch(t, 0, "lazy", aos, res)
	if res.Tests != aos.Tests {
		t.Fatalf("lazy: view ran %d tests, reference %d", res.Tests, aos.Tests)
	}
}
