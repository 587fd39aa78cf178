package core

import (
	"testing"

	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// denseKernelStates builds the dense decision-kernel fixture: every partition
// active and runnable on a shared 40 ms period with uniform small remaining
// budgets (total utilization ≈ 0.4 — each budget is charged twice, as
// remaining demand and as one in-interval replenishment, so every level-h
// test still passes) and
// staggered early sporadic supply chunks, which pull the interference streams
// inside the busy interval and force the fixpoint through multiple
// iterations. This is the shape where Algorithm 3 is hottest: O(h) charged
// streams per test and a growing interval, i.e. the Table-I all-partitions-
// busy case scaled along the partition axis.
func denseKernelStates(n int, now vtime.Time) []PartitionState {
	period := 40 * vtime.Millisecond
	budget := period * 4 / (10 * vtime.Duration(n))
	if budget <= 0 {
		budget = 1
	}
	states := make([]PartitionState, n)
	for i := range states {
		states[i] = PartitionState{
			Budget:        budget,
			Period:        period,
			Remaining:     budget,
			NextReplenish: now.Add(period),
			NextSupply:    now.Add(vtime.Duration(1+i%8) * vtime.Millisecond),
			Active:        true,
			Runnable:      true,
		}
	}
	return states
}

var benchVerdictSink bool

// BenchmarkDecisionKernel times the Algorithm-3 work of a worst-case decision
// through the implementations the differential suite pins equal. Two
// sub-benchmarks time one full per-partition sweep (h = 0..P−1, each level
// standalone and uncached):
//
//   - reference: the AoS schedFixpoint, hardware division, full re-summation
//     every iteration;
//   - kernel: the batched stateView fixpoint, reciprocal division, incremental
//     interference maintenance.
//
// Two more time one whole candidate search over the same states:
//
//   - search_reference: the uncached CandidateSearch, every level from
//     scratch;
//   - search: the production stateView search on a cold verdict cache, each
//     computed level opening from the last passed one's carried fixpoint.
//
// CI runs them from the same binary and gates the dense_P64 kernel/reference
// and the dense_P256 search/search_reference ratios (see
// .github/workflows/ci.yml); the dense fixture is the multi-iteration
// high-interference shape, sparse is the randomized mostly-inactive mix where
// early convergence (and early search failure) dominates.
func BenchmarkDecisionKernel(b *testing.B) {
	now := vtime.Time(17 * vtime.Millisecond)
	w := DefaultQuantum
	fixtures := []struct {
		name   string
		states []PartitionState
	}{
		{"dense_P64", denseKernelStates(64, now)},
		{"dense_P256", denseKernelStates(256, now)},
		{"dense_P1024", denseKernelStates(1024, now)},
		{"sparse_P1024", randomStates(rng.New(0xd1ce), 1024, now)},
	}
	for _, fx := range fixtures {
		n := len(fx.states)
		b.Run(fx.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for h := 0; h < n; h++ {
					ok, _, _, _ := schedFixpoint(fx.states, h, now, w)
					benchVerdictSink = benchVerdictSink != ok
				}
			}
		})
		b.Run(fx.name+"/kernel", func(b *testing.B) {
			v := viewFromStates(fx.states, now)
			v.extend(n - 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for h := 0; h < n; h++ {
					ok, _, _, _, _ := v.fixpoint(h, w, nil)
					benchVerdictSink = benchVerdictSink != ok
				}
			}
		})
		b.Run(fx.name+"/search_reference", func(b *testing.B) {
			var scratch []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := CandidateSearch(fx.states, now, w, scratch)
				scratch = res.Candidates
				benchVerdictSink = benchVerdictSink != res.IdleOK
			}
		})
		b.Run(fx.name+"/search", func(b *testing.B) {
			v := viewFromStates(fx.states, now)
			stamps := make([]uint64, n)
			var c Cache
			var scratch []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reset()
				c.begin(stamps, n)
				v.hoistN = 0
				res := v.search(w, scratch, &c)
				scratch = res.Candidates
				benchVerdictSink = benchVerdictSink != res.IdleOK
			}
		})
	}
}

// TestDecisionKernelBenchFixture guards the dense fixture's premise: every
// level passes (so the benchmark exercises full fixpoints, not early
// failures) and the runs take multiple iterations (so the incremental
// maintenance actually has work to skip).
func TestDecisionKernelBenchFixture(t *testing.T) {
	now := vtime.Time(17 * vtime.Millisecond)
	states := denseKernelStates(64, now)
	var iters int64
	for h := range states {
		ok, _, _, cost := schedFixpoint(states, h, now, DefaultQuantum)
		if !ok {
			t.Fatalf("dense fixture fails at h=%d; benchmark would measure early exits", h)
		}
		iters += cost.iters
	}
	if iters < int64(len(states))*3/2 {
		t.Fatalf("dense fixture converged in %d total iterations over %d levels; need multi-iteration fixpoints", iters, len(states))
	}
}
