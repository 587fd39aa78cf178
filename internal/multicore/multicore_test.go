package multicore

import (
	"testing"

	"timedice/internal/policies"
	"timedice/internal/server"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func TestFirstFitDecreasing(t *testing.T) {
	spec := workload.TableIBase() // five partitions at 16% each
	asg, err := FirstFitDecreasing(spec, 0.40, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 5 × 0.16 at 0.40 capacity → 2 per core → 3 cores.
	if asg.Cores != 3 {
		t.Errorf("cores = %d, want 3", asg.Cores)
	}
	// Every core's load within capacity.
	loads := make([]float64, asg.Cores)
	for i, c := range asg.CoreOf {
		loads[c] += spec.Partitions[i].Utilization()
	}
	for c, l := range loads {
		if l > 0.40+1e-9 {
			t.Errorf("core %d overloaded: %.3f", c, l)
		}
	}
}

func TestFirstFitDecreasingErrors(t *testing.T) {
	spec := workload.TableIBase()
	if _, err := FirstFitDecreasing(spec, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := FirstFitDecreasing(spec, 0.10, 0); err == nil {
		t.Error("partition larger than capacity accepted")
	}
	if _, err := FirstFitDecreasing(spec, 0.17, 2); err == nil {
		t.Error("insufficient core bound accepted")
	}
}

func TestFirstFitSingleCore(t *testing.T) {
	spec := workload.TableIBase()
	asg, err := FirstFitDecreasing(spec, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Cores != 1 {
		t.Errorf("80%% total fits one core, got %d", asg.Cores)
	}
}

func TestMulticoreSystemRuns(t *testing.T) {
	spec := workload.TableIBase()
	asg, err := FirstFitDecreasing(spec, 0.40, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(spec, asg, policies.TimeDiceW, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Cores) != asg.Cores {
		t.Fatalf("engines = %d", len(sys.Cores))
	}
	sys.Run(vtime.Time(2 * vtime.Second))
	if sys.TotalDecisions() == 0 {
		t.Error("no decisions across cores")
	}
	// Every partition keeps its budget guarantee on its own core.
	for c, eng := range sys.Cores {
		for i, p := range sys.Specs[c].Partitions {
			maxShare := p.Utilization()
			got := eng.PartitionTime(i).Seconds() / 2
			if got > maxShare+1e-9 {
				t.Errorf("core %d %s: share %.4f > budget ratio %.4f", c, p.Name, got, maxShare)
			}
		}
	}
}

func TestChannelSameCoreVsCrossCore(t *testing.T) {
	spec := workload.TableIBase()
	// Channel partitions need budget-retaining servers, as in the
	// uniprocessor experiments.
	for i := range spec.Partitions {
		spec.Partitions[i].Server = server.Deferrable
	}

	// Same core: everything on core 0 (the uniprocessor baseline).
	same := Assignment{Cores: 1, CoreOf: []int{0, 0, 0, 0, 0}}
	resSame, err := Channel(ChannelConfig{
		Spec: spec, Assignment: same, Sender: 1, Receiver: 3, Windows: 600, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resSame.SameCore {
		t.Fatal("placement bookkeeping wrong")
	}
	if resSame.Accuracy < 0.8 {
		t.Errorf("same-core channel accuracy %.3f, want high", resSame.Accuracy)
	}

	// Cross core: sender on core 0, receiver on core 1.
	cross := Assignment{Cores: 2, CoreOf: []int{0, 0, 1, 1, 0}}
	resCross, err := Channel(ChannelConfig{
		Spec: spec, Assignment: cross, Sender: 1, Receiver: 3, Windows: 600, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resCross.SameCore {
		t.Fatal("placement bookkeeping wrong (cross)")
	}
	if resCross.Accuracy < 0.4 || resCross.Accuracy > 0.6 {
		t.Errorf("cross-core channel accuracy %.3f, want ≈0.5 (no shared CPU medium)", resCross.Accuracy)
	}
}

func TestChannelValidation(t *testing.T) {
	spec := workload.TableIBase()
	asg := Assignment{Cores: 1, CoreOf: []int{0, 0, 0, 0, 0}}
	if _, err := Channel(ChannelConfig{Spec: spec, Assignment: asg, Sender: 2, Receiver: 2}); err == nil {
		t.Error("sender == receiver accepted")
	}
}

func TestNewValidatesAssignment(t *testing.T) {
	spec := workload.ThreePartition()
	if _, err := New(spec, Assignment{Cores: 1, CoreOf: []int{0}}, policies.NoRandom, 1); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestAssignmentPerCore(t *testing.T) {
	asg := Assignment{Cores: 2, CoreOf: []int{0, 1, 0}}
	per := asg.PerCore()
	if len(per) != 2 || len(per[0]) != 2 || len(per[1]) != 1 {
		t.Errorf("per-core split: %v", per)
	}
}

func buildMC(t *testing.T, seed uint64) *System {
	t.Helper()
	spec := workload.TableIBase()
	asg, err := FirstFitDecreasing(spec, 0.40, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(spec, asg, policies.TimeDiceW, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCoreSeedingDecorrelated is the regression test for the old seed+c
// per-core seeding: under it, system(seed)'s core c+1 and system(seed+1)'s
// core c received the same seed and therefore ran byte-identical RNG
// streams, correlating "independent" trials of a seed sweep. Split-derived
// streams must collide on neither axis, while staying deterministic for a
// fixed (seed, core).
func TestCoreSeedingDecorrelated(t *testing.T) {
	a := buildMC(t, 4)
	b := buildMC(t, 5)
	if len(a.Cores) < 2 {
		t.Fatal("fixture needs >= 2 cores")
	}
	for c := 1; c < len(a.Cores); c++ {
		if a.Cores[c].Rand.State() == b.Cores[c-1].Rand.State() {
			t.Errorf("seed 4 core %d shares its RNG stream with seed 5 core %d (the seed+c collision)", c, c-1)
		}
	}
	// Within one system, cores must not share streams either.
	for i := range a.Cores {
		for j := i + 1; j < len(a.Cores); j++ {
			if a.Cores[i].Rand.State() == a.Cores[j].Rand.State() {
				t.Errorf("seed 4: cores %d and %d share an RNG stream", i, j)
			}
		}
	}
	// Determinism: same seed, same per-core streams.
	a2 := buildMC(t, 4)
	for c := range a.Cores {
		if a.Cores[c].Rand.State() != a2.Cores[c].Rand.State() {
			t.Errorf("core %d stream not deterministic for fixed seed", c)
		}
	}
}
