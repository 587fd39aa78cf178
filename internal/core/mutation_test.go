//go:build timedice_mutation

package core

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// Under -tags timedice_mutation two mutants land on the production decision
// path at once: the verdict cache ignores its state stamps (mutation_on.go)
// and vtime.Reciprocal.CeilDiv rounds down (vtime/mutation_on.go). The
// indexed-vs-scan differential would flag either, but it cannot tell which
// one it caught. Each test below therefore compares two computations that
// share one mutant, so that mutant cancels out and only the other can cause a
// divergence. (The tag's server replenishment and snapshot mutants also
// apply to both sides equally.)
//
// Run them with:
//
//	go test -tags timedice_mutation ./internal/core -run 'TestCacheMutationCaught|TestRecipMutationCaught' -short
//
// The rest of the tree is not expected to pass under the mutation tag.

// coldPolicy is the production policy with its verdict cache and stored
// search dropped before every decision, so each Pick computes every verdict
// fresh. It is the uncached twin of the production path and shares its
// kernel, reciprocals included.
type coldPolicy struct{ *Policy }

func (c coldPolicy) Pick(sys *engine.System, now vtime.Time) *partition.Partition {
	c.cache.Reset()
	c.searchInit = false
	return c.Policy.Pick(sys, now)
}

// traceSegments runs spec under pol with indexed stepping and returns the
// schedule segments it produced.
func traceSegments(t *testing.T, spec model.SystemSpec, pol func(*Policy) engine.GlobalPolicy, seed uint64, dur vtime.Duration) []engine.Segment {
	t.Helper()
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol(NewPolicy()), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var segs []engine.Segment
	sys.TraceFn = func(s engine.Segment) { segs = append(segs, s) }
	sys.RunFor(dur)
	return segs
}

func segmentsEqual(a, b []engine.Segment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheMutationCaught proves the cache has an oracle with teeth: the
// production policy and its cold twin must schedule identically, and under
// the invalidation-skipping mutant stale verdicts — including FAIL verdicts
// memoized with an unbounded horizon — leak across releases, completions,
// depletions and replenishments, so the schedules must diverge. Both sides
// run the mutated reciprocals, which cancel out. If no workload diverges on
// any seed, the invalidation machinery is dead weight or the mutant stopped
// compiling to a behaviour change, and this test fails.
func TestCacheMutationCaught(t *testing.T) {
	seeds := uint64(5)
	if testing.Short() {
		seeds = 2
	}
	fixtures := []struct {
		name string
		spec model.SystemSpec
	}{
		{"TableIBase", workload.TableIBase()},
		{"Dense16", workload.Dense(16)},
		{"Sparse64", workload.Sparse(64)},
	}
	warm := func(p *Policy) engine.GlobalPolicy { return p }
	cold := func(p *Policy) engine.GlobalPolicy { return coldPolicy{p} }
	for _, fx := range fixtures {
		diverged := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			a := traceSegments(t, fx.spec, warm, seed, 2*vtime.Second)
			b := traceSegments(t, fx.spec, cold, seed, 2*vtime.Second)
			if !segmentsEqual(a, b) {
				diverged++
			}
		}
		if diverged == 0 {
			t.Errorf("%s: invalidation-skipping mutant survived %d seeds: the cached-vs-cold comparison cannot catch stale cache verdicts", fx.name, seeds)
			continue
		}
		t.Logf("%s: mutant caught: %d/%d seeds diverged", fx.name, diverged, seeds)
	}
}

// TestRecipMutationCaught proves the kernel has an oracle with teeth: on
// random state sets, the divisionless stateView.fixpoint must reproduce the
// plain-division schedFixpoint, and under the floor-rounding reciprocal
// mutant it undercounts partial-period replenishments, so at least one state
// set must diverge in verdict, interval end or deadline. No cache is
// involved, so the cache mutant cancels out. If every state set still
// matches, the kernel is not actually exercising the reciprocal arena, and
// this test fails.
func TestRecipMutationCaught(t *testing.T) {
	const sets = 200
	r := rng.New(0xd1ce)
	now := vtime.Time(17 * vtime.Millisecond)
	diverged := 0
	for trial := 0; trial < sets; trial++ {
		n := 1 + r.Intn(24)
		states := randomStates(r, n, now)
		v := viewFromStates(states, now)
		v.extend(n - 1)
		for h := 0; h < n; h++ {
			aok, acur, adl, _ := schedFixpoint(states, h, now, DefaultQuantum)
			vok, vcur, vdl, _, _ := v.fixpoint(h, DefaultQuantum)
			if aok != vok || acur != vcur || adl != vdl {
				diverged++
				break
			}
		}
	}
	if diverged == 0 {
		t.Fatalf("corrupted-reciprocal mutant survived %d state sets: the kernel-vs-reference comparison cannot catch divisionless arithmetic drift", sets)
	}
	t.Logf("mutant caught: %d/%d state sets diverged", diverged, sets)
}
