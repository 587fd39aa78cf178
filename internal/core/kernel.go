package core

// The decision kernel's arithmetic. Algorithm 3's busy-interval fixpoint
// charges, for every tracked replenishment stream, the Eq. (1) interference
// term ⌈(cur − o)/T⌉₀ · B. It comes in two forms:
//
//   - the plain-division reference form (streamInterference), used by the
//     reference path's schedFixpoint (ScanStepping, and the public
//     SchedulabilityTest). It deliberately keeps hardware division: it is
//     the oracle the divisionless kernel is pinned against, and the
//     corrupted-reciprocal timedice_mutation mutant is caught precisely
//     because this path does not share the reciprocal constants;
//   - the divisionless kernel form (kernelInit and advance, composed by
//     stateView.fixpoint), which computes the identical values through
//     vtime.Reciprocal over the engine's constant SoA arenas.
//
// vtime's recip_test.go proves the two division forms agree on the entire
// int64 domain; TestViewMatchesAoS pins the composed loops iteration by
// iteration, and the indexed-vs-scan differential pins them end to end.

import "timedice/internal/vtime"

// fixCost tallies the work of one Algorithm-3 busy-interval run:
// fixpoint iterations and interference terms actually evaluated. For the
// same test the standalone kernel replays the reference iteration sequence
// exactly, and a carried run (opened from a lower level's fixpoint) runs no
// more iterations; term counts depend on the evaluation strategy (the
// reference re-sums every stream per iteration, the kernel advances only the
// streams whose next arrival was crossed).
type fixCost struct {
	iters int64
	terms int64
	// carried reports that the run opened from the carried state of a lower
	// passed level (stateView.fixpoint) rather than a full kernelInit.
	carried bool
}

// fixpointIterHook, when non-nil, observes every busy-interval iteration of
// the incremental kernel before the convergence check: the level h, the
// current interval length cur, and the incrementally maintained interference
// sum at cur. Tests install it to assert per-iteration equality of the
// running sum against a from-scratch re-summation; production leaves it nil
// (one predictable branch per iteration).
var fixpointIterHook func(h int, cur, sum vtime.Duration)

// streamInterference is the Eq. (1) interference term of one replenishment
// stream anchored at offset o (relative to now) with period T and budget B:
// the number of replenishments strictly inside the busy interval [0, cur),
// times the budget each delivers.
func streamInterference(cur, o, period, budget vtime.Duration) vtime.Duration {
	return vtime.Duration(vtime.CeilDiv(cur-o, period)) * budget
}

// kernelInit is the unrolled SoA sweep that admits streams into a kernel
// fixpoint run at interval length cur — all m of them when the run opens
// standalone, only those a carried run does not yet track otherwise: for
// every stream j it derives — divisionlessly — the number of
// replenishments strictly before cur, accumulates the interference sum, and
// records the stream's next arrival at or after cur in narr. It returns the
// sum and the minimum recorded arrival (vtime.Forever when no stream is
// tracked). The four slices must share the same length as off (the caller
// reslices them so the compiler drops the bounds checks); the 4-wide
// unrolling keeps four independent multiply chains in flight per trip, which
// is where the reciprocal's pipelining pays off over a divide-per-term loop.
func kernelInit(off, per, bud []vtime.Duration, rec []vtime.Reciprocal, narr []vtime.Duration, cur vtime.Duration) (sum, minArr vtime.Duration) {
	minArr = vtime.Forever
	j := 0
	for ; j+4 <= len(off); j += 4 {
		c0 := vtime.Duration(rec[j].CeilDiv(cur - off[j]))
		c1 := vtime.Duration(rec[j+1].CeilDiv(cur - off[j+1]))
		c2 := vtime.Duration(rec[j+2].CeilDiv(cur - off[j+2]))
		c3 := vtime.Duration(rec[j+3].CeilDiv(cur - off[j+3]))
		sum += c0*bud[j] + c1*bud[j+1] + c2*bud[j+2] + c3*bud[j+3]
		a0 := off[j] + c0*per[j]
		a1 := off[j+1] + c1*per[j+1]
		a2 := off[j+2] + c2*per[j+2]
		a3 := off[j+3] + c3*per[j+3]
		narr[j], narr[j+1], narr[j+2], narr[j+3] = a0, a1, a2, a3
		if a1 < a0 {
			a0 = a1
		}
		if a3 < a2 {
			a2 = a3
		}
		if a2 < a0 {
			a0 = a2
		}
		if a0 < minArr {
			minArr = a0
		}
	}
	for ; j < len(off); j++ {
		c := vtime.Duration(rec[j].CeilDiv(cur - off[j]))
		sum += c * bud[j]
		a := off[j] + c*per[j]
		narr[j] = a
		if a < minArr {
			minArr = a
		}
	}
	return sum, minArr
}

// advance moves every tracked stream whose recorded next arrival narr[j] lies
// before cur up to its first arrival at or after cur, returning the
// interference those crossed arrivals add, the new minimum recorded arrival,
// and the number of streams advanced (the terms evaluated). Streams already at
// or beyond cur are only compared. The slices must share narr's length.
func advance(narr, per, bud []vtime.Duration, rec []vtime.Reciprocal, cur vtime.Duration) (sum, minArr vtime.Duration, terms int64) {
	per = per[:len(narr)]
	bud = bud[:len(narr)]
	rec = rec[:len(narr)]
	minArr = vtime.Forever
	for j, a := range narr {
		if a < cur {
			d := vtime.Duration(rec[j].CeilDiv(cur - a))
			sum += d * bud[j]
			a += d * per[j]
			narr[j] = a
			terms++
		}
		if a < minArr {
			minArr = a
		}
	}
	return sum, minArr, terms
}
