package main

import (
	"fmt"
	"math"

	"timedice/internal/covert"
	"timedice/internal/experiments"
	"timedice/internal/experiments/runner"
	"timedice/internal/ml"
	"timedice/internal/policies"
)

// fig12 is experiments.Fig12 at Quick scale with one worker per CPU.
type fig12 struct {
	scale experiments.Scale
	cells []experiments.Fig12Cell
	err   error
}

func newFig12(seed uint64, workers int) (*fig12, error) {
	sc := experiments.Quick()
	sc.Seed = max(seed, 1) // Fig12 reads seed 0 as 1
	sc.Parallel = workers
	// Warm up on one short, fixed channel trial of the Base load system.
	_, err := covert.Run(covert.Config{
		Spec: experiments.BaseLoad.Spec(), Sender: 1, Receiver: 3,
		ProfileWindows: 16, TestWindows: 32, Policy: policies.TimeDiceW, Seed: warmupSeed,
	}, ml.SVM{})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &fig12{scale: sc}, nil
}

func (f *fig12) run(tr *tracer) {
	if tr != nil {
		f.cells, f.err = fig12Traced(tr, f.scale)
		return
	}
	res, err := experiments.Fig12(f.scale, nil)
	f.cells, f.err = nil, err
	if err == nil {
		f.cells = res.Cells
	}
}

type fig12Trial struct {
	load    experiments.Load
	kind    policies.Kind
	profile int
}

// fig12Trials is the grid experiments.Fig12 runs: two loads, three
// policies, and the profile at a quarter and at full size.
func fig12Trials(sc experiments.Scale) []fig12Trial {
	var trials []fig12Trial
	for _, load := range []experiments.Load{experiments.BaseLoad, experiments.LightLoad} {
		for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW} {
			for _, frac := range []int{4, 1} {
				trials = append(trials, fig12Trial{load: load, kind: kind, profile: max(sc.ProfileWindows/frac, 16)})
			}
		}
	}
	return trials
}

// fig12Traced is experiments.Fig12 with its trial split into spans: build
// the channel harness, simulate and decode response times, then train the
// SVM on the profile vectors and score the test vectors.
func fig12Traced(tr *tracer, sc experiments.Scale) ([]experiments.Fig12Cell, error) {
	root := tr.begin("run", -1, 0)
	defer tr.end(root)
	m := tr.begin("runner.map", -1, root)
	defer tr.end(m)
	return runner.Map(sc.Parallel, fig12Trials(sc), func(i int, t fig12Trial) (experiments.Fig12Cell, error) {
		it := tr.begin("cell", i, m)
		defer tr.end(it)
		s := tr.begin("covert.build", i, it)
		h, err := covert.NewHarness(covert.Config{
			Spec: t.load.Spec(), Sender: 1, Receiver: 3,
			ProfileWindows: t.profile, TestWindows: sc.TestWindows, Policy: t.kind, Seed: sc.Seed,
		})
		tr.end(s)
		if err != nil {
			return experiments.Fig12Cell{}, err
		}
		s = tr.begin("covert.simulate", i, it)
		res, err := h.Run(sc.Seed)
		tr.end(s)
		if err != nil {
			return experiments.Fig12Cell{}, err
		}
		xs, ys := vectors(res.Profile)
		tx, ty := vectors(res.Test)
		s = tr.begin("ml.train", i, it)
		clf, err := ml.SVM{}.Train(xs, ys)
		tr.end(s)
		if err != nil {
			return experiments.Fig12Cell{}, err
		}
		s = tr.begin("ml.predict", i, it)
		acc := ml.Accuracy(clf, tx, ty)
		tr.end(s)
		return experiments.Fig12Cell{
			Policy: t.kind, Load: t.load, ProfileWindows: t.profile,
			RTAccuracy: res.RTAccuracy, VectorAccuracy: acc, Capacity: res.Capacity,
			Separation: covert.Separation(res.Hist0, res.Hist1),
		}, nil
	})
}

// vectors returns the execution vectors and binary labels the paper's
// classifier learns from.
func vectors(obs []covert.Observation) ([][]float64, []int) {
	xs := make([][]float64, len(obs))
	ys := make([]int, len(obs))
	for i, ob := range obs {
		xs[i], ys[i] = ob.Vector, ob.Label&1
	}
	return xs, ys
}

func (f *fig12) outputs() outputs {
	out := outputs{workers: f.scale.Parallel}
	n := len(fig12Trials(f.scale))
	if f.err != nil || len(f.cells) != n {
		msg := fmt.Sprintf("grid has %d cells, want %d", len(f.cells), n)
		if f.err != nil {
			msg = f.err.Error()
		}
		for i := 0; i < n; i++ {
			out.prints = append(out.prints, "")
			out.errs = append(out.errs, msg)
		}
		return out
	}
	for _, c := range f.cells {
		out.prints = append(out.prints, fmt.Sprintf("%v|%v|%d|%x|%x|%x|%x", c.Policy, c.Load, c.ProfileWindows,
			math.Float64bits(c.RTAccuracy), math.Float64bits(c.VectorAccuracy),
			math.Float64bits(c.Capacity), math.Float64bits(c.Separation)))
	}
	out.errs = fig12Claim(f.cells)
	return out
}

// fig12Claim checks the paper's Fig. 12 claim: at each load, every NoRandom
// cell decodes better than every TimeDice cell, by both the vector (SVM) and
// the response-time receiver. Both cells of a pair that breaks it fail.
func fig12Claim(cells []experiments.Fig12Cell) []string {
	errs := make([]string, len(cells))
	for i, a := range cells {
		if a.Policy != policies.NoRandom {
			continue
		}
		for j, b := range cells {
			if b.Load != a.Load || b.Policy == policies.NoRandom {
				continue
			}
			if a.VectorAccuracy <= b.VectorAccuracy || a.RTAccuracy <= b.RTAccuracy {
				msg := fmt.Sprintf("%v: NoRandom profile %d (RT %.4f, vec %.4f) not above %v profile %d (RT %.4f, vec %.4f)",
					a.Load, a.ProfileWindows, a.RTAccuracy, a.VectorAccuracy, b.Policy, b.ProfileWindows, b.RTAccuracy, b.VectorAccuracy)
				errs[i], errs[j] = msg, msg
			}
		}
	}
	return errs
}

// reference: Fig. 12 has no second implementation to compare with; its
// check is the claim above plus repeatability across repetitions.
func (f *fig12) reference() []string { return nil }
