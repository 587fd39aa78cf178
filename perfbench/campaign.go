package main

import (
	"fmt"

	"timedice/internal/check"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/policies"
	"timedice/internal/rng"
)

const (
	// campaignScenarios is the campaign's fixed input: about 2M events, a
	// little over half a second sequentially on a 2-core host.
	campaignScenarios = 2000
	// campaignWarmup scenarios run in set-up, untimed, to warm the heap
	// and caches before the first timed trial.
	campaignWarmup = 64
	// campaignRefEvery: every k-th trial is re-run through the scan
	// reference path after the timed part.
	campaignRefEvery = 25
)

// campaign is `simfuzz -parallel 1` in process: scenario seeds pre-drawn from
// one master seed, each trial generated and run with a flight recorder beside
// the full oracle suite, then folded in index order.
type campaign struct {
	seeds  []uint64
	trials []trialRec
	fold   campaignFold
	err    error
}

type trialRec struct {
	policy policies.Kind
	res    sysResult
	err    string
}

// campaignFold is simfuzz's report state.
type campaignFold struct {
	perPolicy, perPolicyViol map[policies.Kind]int
	events                   int64
	violations               int
	combined                 uint64
}

func newCampaign(seed uint64, n int) (*campaign, error) {
	master := rng.New(seed)
	c := &campaign{seeds: make([]uint64, n)}
	for i := range c.seeds {
		c.seeds[i] = master.Uint64()
	}
	rec := obs.NewRecorder(obs.DefaultRecorderWindow)
	warm := rng.New(warmupSeed)
	for i := 0; i < campaignWarmup; i++ {
		if _, _, err := gen.RunRecorded(gen.Generate(rng.New(warm.Uint64()), gen.DefaultOptions()), rec); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, nil
}

func (c *campaign) run(tr *tracer) {
	root := tr.begin("run", -1, 0)
	m := tr.begin("runner.map", -1, root)
	newRec := func() (*obs.Recorder, error) { return obs.NewRecorder(obs.DefaultRecorderWindow), nil }
	c.trials, c.err = runner.MapPooled(1, newRec, c.seeds, func(rec *obs.Recorder, i int, seed uint64) (trialRec, error) {
		return runTrial(tr, m, rec, i, seed), nil
	})
	tr.end(m)
	f := tr.begin("runner.fold", -1, root)
	c.fold = foldTrials(c.trials)
	tr.end(f)
	tr.end(root)
}

// runTrial is one simfuzz trial. A panic fails the trial, not the campaign.
func runTrial(tr *tracer, parent int, rec *obs.Recorder, i int, seed uint64) (t trialRec) {
	it := tr.begin("trial", i, parent)
	defer tr.end(it)
	defer func() {
		if p := recover(); p != nil {
			t.err = fmt.Sprintf("panic: %v", p)
		}
	}()
	rec.Reset()
	g := tr.begin("gen", i, it)
	sc := gen.Generate(rng.New(seed), gen.DefaultOptions())
	tr.end(g)
	t.policy = sc.Policy
	var (
		suite *check.Suite
		st    gen.RunStats
		err   error
	)
	if tr != nil {
		suite, st, err = runTraced(tr, i, it, sc, rec)
	} else {
		suite, st, err = gen.RunRecorded(sc, rec)
	}
	if err != nil {
		t.err = err.Error()
		return t
	}
	t.res = resultOf(suite, st)
	return t
}

// foldTrials folds trial records in index order, as simfuzz's report does;
// the combined digest chains every trial's event-stream digest.
func foldTrials(trials []trialRec) campaignFold {
	f := campaignFold{
		perPolicy:     map[policies.Kind]int{},
		perPolicyViol: map[policies.Kind]int{},
		combined:      check.DigestSeed,
	}
	for _, t := range trials {
		f.perPolicy[t.policy]++
		f.perPolicyViol[t.policy] += t.res.violations
		f.events += t.res.events
		f.violations += t.res.violations
		f.combined = check.Fold64(f.combined, t.res.digest)
	}
	return f
}

func (c *campaign) outputs() outputs {
	out := outputs{workers: 1}
	if c.err != nil {
		for range c.seeds {
			out.prints = append(out.prints, "")
			out.errs = append(out.errs, c.err.Error())
		}
		return out
	}
	for _, t := range c.trials {
		out.prints = append(out.prints, t.policy.String()+" "+t.res.print())
		msg := t.err
		if msg == "" {
			msg = t.res.failure()
		}
		out.errs = append(out.errs, msg)
		out.counts.add(t.res)
	}
	return out
}

func (c *campaign) reference() []string {
	var fails []string
	for i := 0; i < len(c.trials); i += campaignRefEvery {
		if c.trials[i].err != "" {
			continue // already failed
		}
		sc := gen.Generate(rng.New(c.seeds[i]), gen.DefaultOptions())
		if msg := c.trials[i].res.matchesScan(sc); msg != "" {
			fails = append(fails, fmt.Sprintf("trial %d: %s", i, msg))
		}
	}
	return fails
}
