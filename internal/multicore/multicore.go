// Package multicore extends the uniprocessor model of the paper to
// partitioned multiprocessor scheduling, the deployment model of the
// LITMUS^RT platform the paper builds on: every partition is statically
// assigned to one core, and each core runs its own independent hierarchical
// scheduler (optionally TimeDice).
//
// The covert timing channel of §III uses the shared CPU as its medium, so
// partitioned placement is itself a defense: a sender and receiver on
// different cores share no CPU time and the algorithmic channel disappears
// (microarchitectural channels are outside the paper's model, §III-g). The
// package provides utilization-based placement (first-fit decreasing), the
// multi-core simulator, and the cross-core channel experiment that verifies
// the isolation.
package multicore

import (
	"fmt"
	"sort"

	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// Assignment maps each partition (by index into the source spec) to a core.
type Assignment struct {
	Cores int
	// CoreOf[i] is the core of spec partition i.
	CoreOf []int
}

// PerCore returns the partition indices assigned to each core.
func (a Assignment) PerCore() [][]int {
	out := make([][]int, a.Cores)
	for p, c := range a.CoreOf {
		out[c] = append(out[c], p)
	}
	return out
}

// FirstFitDecreasing packs the partitions of spec onto the fewest cores such
// that each core's total partition utilization stays within capacity (e.g.
// 0.8 to keep the per-core systems schedulable with headroom). maxCores
// bounds the search (0 = unbounded). It returns an error if any single
// partition exceeds the capacity.
func FirstFitDecreasing(spec model.SystemSpec, capacity float64, maxCores int) (Assignment, error) {
	if capacity <= 0 || capacity > 1 {
		return Assignment{}, fmt.Errorf("multicore: capacity must be in (0,1], got %v", capacity)
	}
	type item struct {
		idx  int
		util float64
	}
	items := make([]item, len(spec.Partitions))
	for i, p := range spec.Partitions {
		items[i] = item{idx: i, util: p.Utilization()}
		if items[i].util > capacity {
			return Assignment{}, fmt.Errorf("multicore: partition %q utilization %.3f exceeds core capacity %.3f",
				p.Name, items[i].util, capacity)
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].util > items[b].util })

	var loads []float64
	coreOf := make([]int, len(spec.Partitions))
	for _, it := range items {
		placed := false
		for c := range loads {
			if loads[c]+it.util <= capacity+1e-12 {
				loads[c] += it.util
				coreOf[it.idx] = c
				placed = true
				break
			}
		}
		if !placed {
			if maxCores > 0 && len(loads) >= maxCores {
				return Assignment{}, fmt.Errorf("multicore: %d cores insufficient at capacity %.2f", maxCores, capacity)
			}
			loads = append(loads, it.util)
			coreOf[it.idx] = len(loads) - 1
		}
	}
	return Assignment{Cores: len(loads), CoreOf: coreOf}, nil
}

// System is a partitioned multiprocessor: one independent hierarchical
// scheduler per core. Cores share nothing (the paper's model has no
// cross-partition resources), so they can be advanced independently and the
// combined schedule is exact.
type System struct {
	Cores []*engine.System
	// Built exposes each core's task/scheduler handles.
	Built []*model.Built
	// Specs are the per-core system specs (partition subsets).
	Specs []model.SystemSpec
	// SourceCore maps source-spec partition index → (core, local index).
	SourceCore  []int
	SourceLocal []int
}

// New splits spec per the assignment and builds one engine per core, all
// under the same policy kind. Per-core RNG streams are derived by repeated
// Split from one base generator seeded with seed — NOT seed+c, which made
// adjacent multicore seeds share streams (system(seed)'s core c+1 ran the
// identical stream as system(seed+1)'s core c, so two "independent" trials
// of a sweep were correlated wherever their core layouts aligned). The split
// chain keeps each core's stream a deterministic function of (seed, core
// index) while decorrelating across both axes.
func New(spec model.SystemSpec, asg Assignment, kind policies.Kind, seed uint64) (*System, error) {
	if len(asg.CoreOf) != len(spec.Partitions) {
		return nil, fmt.Errorf("multicore: assignment covers %d partitions, spec has %d",
			len(asg.CoreOf), len(spec.Partitions))
	}
	sys := &System{
		SourceCore:  make([]int, len(spec.Partitions)),
		SourceLocal: make([]int, len(spec.Partitions)),
	}
	base := rng.New(seed)
	perCore := asg.PerCore()
	for c, idxs := range perCore {
		sub := model.SystemSpec{Name: fmt.Sprintf("%s/core%d", spec.Name, c)}
		for local, pi := range idxs {
			sub.Partitions = append(sub.Partitions, spec.Partitions[pi])
			sys.SourceCore[pi] = c
			sys.SourceLocal[pi] = local
		}
		// One split per core slot, drawn before the empty-core skip so core
		// c's stream depends only on (seed, c), not on which other slots
		// happen to be populated.
		coreRand := base.Split()
		if len(sub.Partitions) == 0 {
			continue
		}
		built, err := sub.Build()
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
		pol, err := policies.Build(kind, built.Partitions, policies.Options{})
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
		eng, err := engine.New(built.Partitions, pol, coreRand)
		if err != nil {
			return nil, fmt.Errorf("core %d: %w", c, err)
		}
		sys.Cores = append(sys.Cores, eng)
		sys.Built = append(sys.Built, built)
		sys.Specs = append(sys.Specs, sub)
	}
	return sys, nil
}

// Run advances every core to the given instant.
func (s *System) Run(until vtime.Time) {
	for _, c := range s.Cores {
		c.Run(until)
	}
}

// TotalDecisions sums the scheduling decisions across cores.
func (s *System) TotalDecisions() int64 {
	var n int64
	for _, c := range s.Cores {
		n += c.Counters.Decisions
	}
	return n
}
