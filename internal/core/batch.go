package core

// This file is the production decision path: the candidate search,
// busy-interval fixpoint, verdict cache, search reuse, and lottery selection,
// expressed over the engine's struct-of-arrays hot arenas (engine.Hot). The
// reference path — ScanStepping's AoS snapshot, the uncached CandidateSearch
// and the plain-division schedFixpoint in timedice.go — is what it is pinned
// against.
//
// The view aliases the arenas directly (bind is O(1)) instead of snapshotting
// every server into PartitionState structs, an O(P) pointer chase that
// dominates at P=4096+ where a decision touches a handful of partitions. It
// walks runnable partitions through the ready bitset and hoists the two
// loop-invariant terms of Eq. 1–2 out of the fixpoint iteration:
//
//   - off[j]       = supply_j − now      (the stream anchor, constant per decision)
//   - remPrefix[h] = Σ_{j<h} remaining_j (term (b), the hp remaining-budget sum)
//
// Both are filled lazily in index order (extend), so a decision that tests up
// to partition h pays O(h) hoisting total — amortized O(1) per test.
//
// The fixpoint itself runs the decision kernel (kernel.go): no hardware
// division (interference counts come from the precomputed vtime.Reciprocal
// arena) and no redundant re-summation (the busy-interval length cur is
// monotone nondecreasing within a run, so the kernel maintains each tracked
// stream's next charged arrival in narr and a running interference sum,
// advancing only the streams whose arrival was crossed — O(changed) per
// iteration instead of O(h)). At convergence narr holds exactly the arrivals
// that bound the verdict's validity horizon, so the horizon falls out of the
// recorded minimum for free.
//
// Within one candidate search that state also carries from level to level:
// a passed level's converged interval is a lower bound of every higher
// level's, so the next computed level opens from it, advancing the carried
// streams and admitting only the new ones, instead of re-sweeping all h
// streams from w0. A search then costs O(P) interference terms rather than
// Σh = O(P²).
//
// Exactness contract: every arithmetic step computes the same values as
// schedFixpoint/Select (including the NextSupply==0 fallback and the float64
// lottery weights), so verdicts, candidate lists, and random draws are
// bit-identical to the reference. TestViewMatchesAoS pins that per function
// (including per-iteration equality of the incremental sum, the standalone
// fixpoint's iteration-for-iteration replay, and the cached search against
// the uncached one); TestCarriedSearchMatchesStandalone and
// TestCarriedSearchNoLeak pin every carried level against the standalone
// fixpoint; the indexed-vs-scan digest suite pins it end to end.

import (
	"timedice/internal/bitset"
	"timedice/internal/engine"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// stateView is the per-decision view over the engine's hot arenas. The six
// arena slices and the ready bitset are aliased, never copied; off, remPrefix,
// and narr are policy-owned scratch reused across decisions.
type stateView struct {
	remaining []vtime.Duration
	budget    []vtime.Duration
	period    []vtime.Duration
	deadline  []vtime.Time
	supply    []vtime.Time
	recip     []vtime.Reciprocal
	ready     *bitset.Hier

	now vtime.Time

	// Hoisted per-decision terms, valid for indices < hoistN.
	off       []vtime.Duration // supplyAt(j) − now
	remPrefix []vtime.Duration // Σ_{j<h} remaining[j]
	hoistN    int

	// Fixpoint scratch: narr[j] is stream j's next charged arrival during the
	// current fixpoint run.
	narr []vtime.Duration
}

// bind aliases the arena view for one decision at instant now. O(1) apart
// from one-time scratch growth.
func (v *stateView) bind(hot engine.Hot, now vtime.Time) {
	v.remaining = hot.Remaining
	v.budget = hot.Budget
	v.period = hot.Period
	v.deadline = hot.Deadline
	v.supply = hot.Supply
	v.recip = hot.Recip
	v.ready = hot.Ready
	v.now = now
	n := len(hot.Remaining)
	if cap(v.off) < n {
		v.off = make([]vtime.Duration, n)
		v.remPrefix = make([]vtime.Duration, n)
		v.narr = make([]vtime.Duration, n)
	}
	v.off = v.off[:n]
	v.remPrefix = v.remPrefix[:n]
	v.narr = v.narr[:n]
	v.hoistN = 0
}

func (v *stateView) n() int { return len(v.remaining) }

// supplyAt mirrors PartitionState.supplyTime: the earliest future budget gain,
// defaulting to the replenishment deadline when the supply anchor is unset.
func (v *stateView) supplyAt(j int) vtime.Time {
	if v.supply[j] != 0 {
		return v.supply[j]
	}
	return v.deadline[j]
}

// extend fills off and remPrefix up through index h. Tests run in increasing
// h, so across one decision the total work is O(max h), not O(h) per test.
func (v *stateView) extend(h int) {
	for j := v.hoistN; j <= h; j++ {
		if j == 0 {
			v.remPrefix[0] = 0
		} else {
			v.remPrefix[j] = v.remPrefix[j-1] + v.remaining[j-1]
		}
		v.off[j] = v.supplyAt(j).Sub(v.now)
	}
	if h+1 > v.hoistN {
		v.hoistN = h + 1
	}
}

// fixpoint is schedFixpoint over the arena view — the Algorithm-3
// busy-interval iteration for partition h under an inversion of w — run as the
// incremental, divisionless decision kernel. Callers must extend(h) first.
//
// The tracked stream set is hp(Π_h), plus Π_h's own replenishment stream when
// it is inactive (its indirect interference term) — exactly the streams
// schedFixpoint charges, always the prefix [0, m) of the arenas. The run
// keeps narr[j] = the first arrival of stream j at or after cur together with
// the running interference sum, and exploits that cur only grows: streams
// whose recorded arrival is still at or beyond the new cur contribute no new
// replenishments, so their count, sum share, and arrival carry over untouched,
// and the rescan (advance, guarded by the running minimum arrival) moves only
// the crossed ones. The running sum therefore always equals the reference's
// from-scratch Σ ⌈(cur−o)/T⌉₀·B at the current cur — in exact integers, hence
// bit-for-bit in int64. At convergence narr holds each tracked stream's first
// arrival at or after cur; their minimum is returned in minArr for horizonOf.
//
// How the run opens depends on c:
//
//   - c == nil (the standalone form): kernelInit sweeps all m streams at
//     cur = w0, and the iteration sequence replays schedFixpoint's exactly.
//   - c holds the state of a lower level L that passed earlier in the same
//     search: the run starts from the seed max(w0, E_L), advancing the carried
//     streams [0, c.m) to the seed and admitting only [c.m, m) with kernelInit.
//     Level h charges every stream and budget level L charges plus more, so
//     f_h ≥ f_L pointwise and E_L ≤ E_h; the seed is a lower bound of E_h with
//     f_h(seed) ≥ seed, and iterating upward from it reaches the same least
//     fixpoint E_h — the same verdict, cur and minArr — in no more
//     iterations. Over one search the openings then cost O(P) terms in total
//     instead of Σh = O(P²).
//   - c is empty, or its m exceeds this level's (never within one search,
//     where h increases): the standalone opening.
//
// A pass records this level's state in c for the next one; a fail drops it
// (the run may have advanced narr past the carried cur).
func (v *stateView) fixpoint(h int, w vtime.Duration, c *carry) (ok bool, cur, deadline, minArr vtime.Duration, cost fixCost) {
	active := v.remaining[h] > 0
	w0 := w + v.remPrefix[h]
	if active {
		w0 += v.remaining[h]
		deadline = v.deadline[h].Sub(v.now)
	} else {
		deadline = v.deadline[h].Add(v.period[h]).Sub(v.now)
	}
	if w0 > deadline {
		c.drop()
		return false, 0, deadline, 0, cost
	}
	m := h
	if !active {
		m = h + 1
	}
	off := v.off[:m]
	per := v.period[:m]
	bud := v.budget[:m]
	rec := v.recip[:m]
	narr := v.narr[:m]
	cur = w0
	var sum vtime.Duration
	if c != nil && c.valid && c.m <= m {
		cost.carried = true
		cur = max(cur, c.cur)
		sum, minArr = c.sum, c.minArr
		if cur > minArr {
			d, a, n := advance(narr[:c.m], per[:c.m], bud[:c.m], rec[:c.m], cur)
			sum += d
			minArr = a
			cost.terms += n
		}
		s, mn := kernelInit(off[c.m:], per[c.m:], bud[c.m:], rec[c.m:], narr[c.m:], cur)
		sum += s
		minArr = min(minArr, mn)
		cost.terms += int64(m - c.m)
	} else {
		sum, minArr = kernelInit(off, per, bud, rec, narr, cur)
		cost.terms = int64(m)
	}
	for {
		cost.iters++
		if fixpointIterHook != nil {
			fixpointIterHook(h, cur, sum)
		}
		next := w0 + sum
		if next > deadline {
			c.drop()
			return false, cur, deadline, 0, cost
		}
		if next == cur {
			if c != nil {
				*c = carry{valid: true, m: m, cur: cur, sum: sum, minArr: minArr}
			}
			return true, cur, deadline, minArr, cost
		}
		cur = next
		if cur > minArr {
			d, a, n := advance(narr, per, bud, rec, cur)
			sum += d
			minArr = a
			cost.terms += n
		}
	}
}

// carry is the busy-interval state one candidate search hands from a passed
// level to the next level it computes: that level's tracked-stream count m,
// its converged interval end cur, the interference sum of streams [0, m) at
// cur, and the minimum of their next arrivals, which narr[:m] holds. Cache
// hits in between leave it intact: any lower passed level of the same
// decision is a valid seed. The zero value carries nothing.
type carry struct {
	valid    bool
	m        int
	cur, sum vtime.Duration
	minArr   vtime.Duration
}

// drop forgets the carried state; a nil carry (the standalone fixpoint) has
// none to forget.
func (c *carry) drop() {
	if c != nil {
		c.valid = false
	}
}

// horizonOf is how far past now a passing verdict stays exact: the minimum of
// the deadline slack (deadline − cur) and the gap from the converged interval
// end cur to the next arrival of any stream the test charges. The fixpoint
// returns that arrival minimum in minArr, so there is no division and no O(h)
// rescan. When the tracked set is empty (h = 0 and active), minArr is Forever
// and only the deadline slack bounds the horizon. batch_test.go's passHorizon
// recomputes it from scratch as the oracle.
func horizonOf(cur, deadline, minArr vtime.Duration) vtime.Duration {
	horizon := deadline - cur
	if gap := minArr - cur; gap < horizon {
		horizon = gap
	}
	return horizon
}

// testVerdict is the production test front end: it serves a still-valid
// memoized verdict from cache, or runs the kernel fixpoint — opening from the
// search's carried state c when it holds a lower passed level — and memoizes
// the fresh verdict with its validity horizon. res.Tests counts only actual
// Algorithm-3 computations, never cache hits; the fixpoint's work tallies
// accumulate alongside.
func (v *stateView) testVerdict(h int, w vtime.Duration, res *SearchResult, cache *Cache, c *carry) bool {
	if ok, hit := cache.lookup(h, v.now); hit {
		return ok
	}
	v.extend(h)
	ok, cur, deadline, minArr, cost := v.fixpoint(h, w, c)
	if verdictHook != nil {
		verdictHook(h, ok, cur, deadline, minArr, cost)
	}
	res.tally(cost)
	validUntil := vtime.Infinity // FAIL holds for the rest of the epoch
	if ok {
		validUntil = v.now.Add(horizonOf(cur, deadline, minArr))
	}
	cache.store(h, ok, validUntil)
	return ok
}

// verdictHook, when non-nil, observes every Algorithm-3 computation
// testVerdict runs: the level h and the fixpoint's full outcome and cost.
// Tests install it to pin each carried run against the standalone fixpoint;
// production leaves it nil.
var verdictHook func(h int, ok bool, cur, deadline, minArr vtime.Duration, cost fixCost)

// search is CandidateSearch over the view, with every test going through
// the verdict cache. Instead of scanning all P states for the Runnable flag,
// it walks the set bits of the ready set — O(occupied groups + runnable) —
// and runs the same incremental coverage of the partitions between
// candidates. The tests it computes share one carry, so each level's
// fixpoint opens from the last passed one; the carry starts empty here, so
// nothing crosses from one search (or one w) to the next.
func (v *stateView) search(w vtime.Duration, scratch []int, cache *Cache) SearchResult {
	res := SearchResult{Candidates: scratch[:0]}
	var c carry
	examined := 0
	first := true
	failed := false
	v.ready.ForEachSet(func(i int) bool {
		if first {
			res.Candidates = append(res.Candidates, i)
			if examined < i {
				examined = i
			}
			first = false
			return true
		}
		for h := examined; h < i; h++ {
			if !v.testVerdict(h, w, &res, cache, &c) {
				failed = true
				return false
			}
			examined = h + 1
		}
		res.Candidates = append(res.Candidates, i)
		if examined < i {
			examined = i
		}
		return true
	})
	if failed || first {
		return res
	}
	idleOK := true
	for h := examined; h < v.n(); h++ {
		if !v.testVerdict(h, w, &res, cache, &c) {
			idleOK = false
			break
		}
		examined = h + 1
	}
	res.IdleOK = idleOK
	return res
}

// selectFrom is Select over the view: identical option counting, weight
// arithmetic, and random-stream consumption, reading the candidates' draining
// budgets and deadlines straight from the arenas (which are live, so reused
// searches need no per-candidate refresh).
func (v *stateView) selectFrom(res SearchResult, mode SelectionMode, rnd *rng.Rand, weights []float64) int {
	n := len(res.Candidates)
	options := n
	if res.IdleOK {
		options++
	}
	if options == 0 {
		panic("core: selectFrom with no options")
	}
	if mode == SelectUniform {
		k := rnd.Intn(options)
		if k == n {
			return IdleChoice
		}
		return res.Candidates[k]
	}
	weights = weights[:0]
	var sum float64
	for _, i := range res.Candidates {
		den := v.deadline[i].Sub(v.now)
		var u float64
		if den > 0 {
			u = float64(v.remaining[i]) / float64(den)
		}
		weights = append(weights, u)
		sum += u
	}
	if res.IdleOK {
		idleW := 1 - sum
		if idleW < 0 {
			idleW = 0
		}
		weights = append(weights, idleW)
	}
	k := rnd.WeightedIndex(weights)
	if k == n {
		return IdleChoice
	}
	return res.Candidates[k]
}

// pickView is Pick's production body: alias the arenas, reuse or rerun the
// cached search, select. The arenas are live, so a reused search needs no
// refresh of the remaining/deadline values selection reads.
//
// The stored search is reusable while no partition has been stamped since it
// ran (the engine's Epoch is the maximum per-partition stamp, so the check is
// O(1)) and now is within the horizon of every verdict it consulted. Under
// the timedice_mutation tag the stamp comparison is skipped, mirroring the
// entry-level mutation (see mutation_on.go).
func (p *Policy) pickView(sys *engine.System, now vtime.Time, rnd *rng.Rand) *partition.Partition {
	v := &p.view
	v.bind(sys.Hot(), now)
	var res SearchResult
	epoch := sys.Epoch()
	if p.searchInit && p.searchLen == v.n() &&
		(cacheIgnoresInvalidation || epoch == p.searchStamp) && now <= p.searchValid {
		res = SearchResult{Candidates: p.scratch, IdleOK: p.searchIdle}
		p.stats.SearchReuses++
	} else {
		p.cache.begin(sys.StateStamps(), v.n())
		res = v.search(p.quantum, p.scratch, &p.cache)
		p.scratch = res.Candidates
		p.searchInit = true
		p.searchIdle = res.IdleOK
		p.searchStamp = epoch
		p.searchValid = p.cache.searchValid
		p.searchLen = v.n()
	}
	if !p.account(sys, res) {
		return nil
	}
	return p.chosen(sys, res, v.selectFrom(res, p.mode, rnd, p.weights))
}
