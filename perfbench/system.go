package main

import (
	"fmt"
	"time"

	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/policies"
	"timedice/internal/rng"
)

// runTraced is gen.RunRecorded built by hand, so that spans can sit between
// its stages: build (bound analysis and construction), the engine run with
// Pick timed by MeasureLatency and the sink fan-out timed per event, and the
// suite's end-of-run checks. Its suite and stats must equal RunRecorded's.
func runTraced(tr *tracer, item, parent int, sc gen.Scenario, rec *obs.Recorder) (*check.Suite, gen.RunStats, error) {
	b := tr.begin("build", item, parent)
	suite, sys, err := buildSystem(sc)
	tr.end(b)
	if err != nil {
		return nil, gen.RunStats{}, err
	}
	sys.MeasureLatency = true
	sys.Counters.PolicyLatency = tr.pickHist
	fan := &timedFanout{suite: suite, rec: rec, dig: check.NewDigester()}
	sys.AttachTelemetry(fan)

	e := tr.begin("engine.run", item, parent)
	sys.RunFor(sc.Horizon)
	sys.FlushTelemetry()
	tr.end(e)
	c := &sys.Counters
	// The clock reads around each Pick and each event are booked to
	// trace.clock, not to the layers they bracket.
	picks, clk := c.PolicySamples, tr.clock
	tr.agg("core.pick", item, e, c.PolicyTime-time.Duration(picks)*clk.pickNull, picks)
	fan.record(tr, item, e)
	tr.agg("trace.clock", item, e, time.Duration(picks)*clk.pickPair+time.Duration(4*fan.n)*clk.read, 2*picks+4*fan.n)

	f := tr.begin("check.suite", item, parent)
	suite.Finish(sys.Now())
	suite.CheckCounters(c, sc.Horizon)
	tr.end(f)
	if fan.dig.Digest() != suite.Digest() || fan.dig.Events() != suite.Events() {
		return nil, gen.RunStats{}, fmt.Errorf("digest probe %#016x/%d events disagrees with the suite's %#016x/%d",
			fan.dig.Digest(), fan.dig.Events(), suite.Digest(), suite.Events())
	}
	return suite, runStats(sys), nil
}

// buildSystem constructs what gen.RunRecorded runs: the oracle suite (whose
// constructor runs the bound analysis) and the engine system.
func buildSystem(sc gen.Scenario) (*check.Suite, *engine.System, error) {
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	built, err := sc.Spec.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := policies.Build(sc.Policy, built.Partitions, policies.Options{Quantum: sc.Quantum})
	if err != nil {
		return nil, nil, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(sc.Seed))
	if err != nil {
		return nil, nil, err
	}
	return suite, sys, nil
}

func runStats(sys *engine.System) gen.RunStats {
	st := gen.RunStats{Counters: sys.Counters}
	if p, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		s := p.Stats()
		st.CacheHits, st.CacheMisses = s.CacheHits, s.CacheMisses
	}
	return st
}

// sysResult is what one system run produced, kept raw inside the timed part
// and rendered afterwards.
type sysResult struct {
	events     int64
	digest     uint64
	violations int
	firstViol  string
	st         gen.RunStats
}

func resultOf(suite *check.Suite, st gen.RunStats) sysResult {
	vs, n := suite.Violations()
	r := sysResult{events: suite.Events(), digest: suite.Digest(), violations: n, st: st}
	if len(vs) > 0 {
		r.firstViol = vs[0].String()
	}
	return r
}

// print renders the run's checked outputs and exact counts: equal strings
// mean identical event streams and identical step work.
func (r sysResult) print() string {
	c := r.st.Counters
	return fmt.Sprintf("events=%d digest=%#016x violations=%d decisions=%d switches=%d arena=%d fixpoint=%d interference=%d hits=%d misses=%d deadline_misses=%d",
		r.events, r.digest, r.violations, c.Decisions, c.Switches, c.ArenaBytesTouched,
		c.FixpointIters, c.InterferenceTerms, r.st.CacheHits, r.st.CacheMisses, c.DeadlineMisses)
}

// failure describes the run's oracle violations, "" when there are none.
func (r sysResult) failure() string {
	if r.violations == 0 {
		return ""
	}
	return fmt.Sprintf("%d oracle violations, first: %s", r.violations, r.firstViol)
}

// matchesScan re-runs sc through the reference stepping path and reports
// any disagreement in digest or event count, "" when they agree.
func (r sysResult) matchesScan(sc gen.Scenario) string {
	ref, err := gen.RunScan(sc)
	switch {
	case err != nil:
		return err.Error()
	case ref.Digest() != r.digest || ref.Events() != r.events:
		return fmt.Sprintf("scan reference gives %#016x/%d events, the run gave %#016x/%d",
			ref.Digest(), ref.Events(), r.digest, r.events)
	}
	return ""
}

func (c *counts) add(r sysResult) {
	c.Decisions += r.st.Counters.Decisions
	c.ArenaBytes += r.st.Counters.ArenaBytesTouched
	c.FixpointIters += r.st.Counters.FixpointIters
	c.InterferenceTerms += r.st.Counters.InterferenceTerms
	c.Events += r.events
	c.CacheHits += r.st.CacheHits
	c.CacheMisses += r.st.CacheMisses
}
