package main

import (
	"fmt"

	"timedice/internal/check"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/policies"
	"timedice/internal/vtime"
	fixtures "timedice/internal/workload"
)

const (
	// largePPartitions is above the generator's 16-partition cap: it reaches
	// the ready bitset's summary level, deep heap levels and many distinct
	// reciprocal divisors.
	largePPartitions = 256
	// largePHorizon is 25 periods of the Dense(256) system, about 70k events.
	largePHorizon = 10 * vtime.Second
)

// largeP is one Dense(256) TimeDiceW system run through gen.RunRecorded with
// the full oracle suite.
type largeP struct {
	sc  gen.Scenario
	rec *obs.Recorder
	res sysResult
	err string
}

func newLargeP(seed uint64, horizon vtime.Duration) (*largeP, error) {
	sc := gen.Scenario{
		Spec: fixtures.Dense(largePPartitions), Policy: policies.TimeDiceW,
		Quantum: vtime.Millisecond, Seed: seed, Horizon: horizon,
	}
	// Bound analysis: the suite's constructor derives every task's
	// response-time bound under the policy, and rejects an unschedulable spec.
	if _, err := check.NewSuite(sc.Spec, sc.Policy); err != nil {
		return nil, fmt.Errorf("bound analysis: %w", err)
	}
	rec := obs.NewRecorder(obs.DefaultRecorderWindow)
	warm := sc
	warm.Seed, warm.Horizon = warmupSeed, sc.Spec.Partitions[0].Period
	if _, _, err := gen.RunRecorded(warm, rec); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rec.Reset()
	return &largeP{sc: sc, rec: rec}, nil
}

func (l *largeP) run(tr *tracer) {
	root := tr.begin("run", -1, 0)
	defer tr.end(root)
	it := tr.begin("system", 0, root)
	defer tr.end(it)
	var (
		suite *check.Suite
		st    gen.RunStats
		err   error
	)
	if tr != nil {
		suite, st, err = runTraced(tr, 0, it, l.sc, l.rec)
	} else {
		suite, st, err = gen.RunRecorded(l.sc, l.rec)
	}
	if err != nil {
		l.err = err.Error()
		return
	}
	l.res = resultOf(suite, st)
}

func (l *largeP) outputs() outputs {
	out := outputs{workers: 1, prints: []string{l.res.print()}, errs: []string{l.err}}
	if l.err == "" {
		out.errs[0] = l.res.failure()
	}
	out.counts.add(l.res)
	return out
}

func (l *largeP) reference() []string {
	if l.err != "" {
		return nil // already failed
	}
	if msg := l.res.matchesScan(l.sc); msg != "" {
		return []string{msg}
	}
	return nil
}
