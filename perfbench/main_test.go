package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/policies"
	"timedice/internal/vtime"
)

// TestCampaignMatchesSimfuzz pins the campaign loop to `simfuzz -parallel 1`:
// the same per-policy counts, event total and combined digest.
func TestCampaignMatchesSimfuzz(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	const n, seed = 120, 5
	cmd := exec.Command(goBin, "run", "timedice/cmd/simfuzz",
		"-scenarios", fmt.Sprint(n), "-seed", fmt.Sprint(seed), "-parallel", "1", "-runs", "")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simfuzz: %v\n%s", err, out)
	}
	c, err := newCampaign(seed, n)
	if err != nil {
		t.Fatal(err)
	}
	c.run(nil)
	var want []string
	for _, k := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW} {
		want = append(want, fmt.Sprintf("  %-9s %6d scenarios, %d violations\n", k, c.fold.perPolicy[k], c.fold.perPolicyViol[k]))
	}
	want = append(want, fmt.Sprintf("  events    %d\n", c.fold.events), fmt.Sprintf("  digest    %#016x\n", c.fold.combined))
	for _, line := range want {
		if !strings.Contains(string(out), line) {
			t.Errorf("simfuzz report lacks %q:\n%s", line, out)
		}
	}
}

// TestTracedMatchesUntraced pins the hand-built traced system path to
// gen.RunRecorded: identical digests, event counts and deterministic
// counters on the campaign and on a short large_p run.
func TestTracedMatchesUntraced(t *testing.T) {
	reps := map[string]func() (rep, error){
		"campaign": func() (rep, error) { return newCampaign(11, 80) },
		"large_p":  func() (rep, error) { return newLargeP(11, vtime.Second) },
	}
	for name, setup := range reps {
		t.Run(name, func(t *testing.T) {
			plain, err := setup()
			if err != nil {
				t.Fatal(err)
			}
			traced, err := setup()
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			plain.run(nil)
			traced.run(tr)
			a, b := plain.outputs(), traced.outputs()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("traced outputs differ from untraced:\n%+v\n%+v", b, a)
			}
			for i, e := range a.errs {
				if e != "" {
					t.Errorf("item %d failed: %s", i, e)
				}
			}
			if a.counts.Decisions == 0 || a.counts.Events == 0 || a.counts.FixpointIters == 0 {
				t.Errorf("exact counts missing: %+v", a.counts)
			}
			names := map[string]bool{}
			for _, s := range tr.spans {
				names[s.Name] = true
			}
			for _, want := range []string{"run", "build", "engine.run", "core.pick", "telemetry.sink", "check.suite", "check.digest", "obs.recorder", "trace.clock"} {
				if !names[want] {
					t.Errorf("no %s span", want)
				}
			}
		})
	}
}

// TestFig12TracedMatchesFig12 pins the traced Fig. 12 path (NewHarness, Run,
// SVM Train, Accuracy) to experiments.Fig12, cell for cell.
func TestFig12TracedMatchesFig12(t *testing.T) {
	sc := experiments.Scale{ProfileWindows: 64, TestWindows: 128, SimSeconds: 1, Seed: 3, Parallel: 2}
	want, err := experiments.Fig12(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, err := fig12Traced(tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Cells) {
		t.Fatalf("traced cells differ:\n got %+v\nwant %+v", got, want.Cells)
	}
	calls := map[string]int{}
	for _, s := range tr.spans {
		calls[s.Name]++
	}
	for _, name := range []string{"cell", "covert.build", "covert.simulate", "ml.train", "ml.predict"} {
		if calls[name] != len(got) {
			t.Errorf("%d %s spans, want %d", calls[name], name, len(got))
		}
	}
}

// TestOutputCheckRejects feeds corrupted results to the output checks.
func TestOutputCheckRejects(t *testing.T) {
	c, err := newCampaign(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	c.run(nil)
	if fails := c.reference(); len(fails) != 0 {
		t.Fatalf("clean campaign fails its reference check: %v", fails)
	}
	if errs := c.outputs().errs; strings.Join(errs, "") != "" {
		t.Fatalf("clean campaign has failures: %q", errs)
	}

	c.trials[3].res.violations, c.trials[3].res.firstViol = 1, "injected"
	if errs := c.outputs().errs; errs[3] == "" {
		t.Error("an injected oracle violation passed the check")
	}
	c.trials[0].res.digest ^= 1
	if fails := c.reference(); len(fails) != 1 {
		t.Errorf("a flipped digest gave %d reference failures, want 1: %v", len(fails), fails)
	}

	l, err := newLargeP(4, 500*vtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l.run(nil)
	if fails := l.reference(); len(fails) != 0 {
		t.Fatalf("clean large_p fails its reference check: %v", fails)
	}
	l.res.events++
	if fails := l.reference(); len(fails) != 1 {
		t.Errorf("a wrong event count gave %d reference failures, want 1", len(fails))
	}

	cells := []experiments.Fig12Cell{
		{Policy: policies.NoRandom, Load: experiments.BaseLoad, RTAccuracy: 0.9, VectorAccuracy: 0.99},
		{Policy: policies.TimeDiceW, Load: experiments.BaseLoad, RTAccuracy: 0.6, VectorAccuracy: 0.8},
		{Policy: policies.TimeDiceU, Load: experiments.LightLoad, RTAccuracy: 0.95, VectorAccuracy: 0.7},
		{Policy: policies.NoRandom, Load: experiments.LightLoad, RTAccuracy: 0.9, VectorAccuracy: 0.99},
	}
	errs := fig12Claim(cells)
	if errs[0] != "" || errs[1] != "" {
		t.Errorf("base load satisfies the claim but failed: %q", errs[:2])
	}
	if errs[2] == "" || errs[3] == "" {
		t.Errorf("light load TimeDiceU above NoRandom passed: %q", errs[2:])
	}
}

// fakeRep is a workload whose outputs a test controls.
type fakeRep struct {
	runs *int
	out  func(run int) outputs
}

func (f fakeRep) run(*tracer)         { *f.runs++ }
func (f fakeRep) outputs() outputs    { return f.out(*f.runs) }
func (f fakeRep) reference() []string { return nil }

// TestMeasureCountsFailures checks that failed items and drifting outputs
// make the result incorrect.
func TestMeasureCountsFailures(t *testing.T) {
	cases := map[string]struct {
		out        func(run int) outputs
		wantFailed bool
	}{
		"clean": {func(int) outputs {
			return outputs{prints: []string{"a", "b"}, errs: []string{"", ""}}
		}, false},
		"failed item": {func(int) outputs {
			return outputs{prints: []string{"a", "b"}, errs: []string{"", "violation"}}
		}, true},
		"drift": {func(run int) outputs {
			return outputs{prints: []string{"a", fmt.Sprint(run)}, errs: []string{"", ""}}
		}, true},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			runs := 0
			w := workload{name: name, setup: func(uint64) (rep, error) { return fakeRep{&runs, tc.out}, nil }}
			res := measure(w, 1, time.Millisecond, false).result(false)
			if res.Correct == tc.wantFailed || (res.Failed > 0) != tc.wantFailed {
				t.Fatalf("correct=%v failed=%d, want failures=%v", res.Correct, res.Failed, tc.wantFailed)
			}
			if res.Attempted != 2*runs {
				t.Errorf("attempted %d items over %d runs of 2", res.Attempted, runs)
			}
		})
	}
}

// TestSelfTimes checks self time against a hand-made span tree: interval
// children count by the union of their intervals, aggregates by their sum.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "b", Start: 4, End: 8},
		{ID: 4, Parent: 1, Name: "agg", Agg: 1, Count: 3},
		{ID: 5, Parent: 3, Name: "c", Start: 6, End: 7},
	}
	got := selfTimes(spans)
	want := []time.Duration{3, 3, 3, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: the same workloads, names, units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	strip := func(ms []metric) []metric {
		out := make([]metric, len(ms))
		for i, m := range ms {
			out[i] = metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if got, want := bj.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", got, want)
	}
	if got, want := bj.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", got, want)
	}
}
