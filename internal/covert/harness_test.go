package covert

import (
	"testing"

	"timedice/internal/policies"
	"timedice/internal/telemetry"
)

// sameResult compares the per-trial channel metrics and observation streams
// of two results (vectors compared by value, since a Harness result aliases
// reusable buffers).
func sameResult(t *testing.T, label string, fresh, reused *Result) {
	t.Helper()
	if fresh.RTAccuracy != reused.RTAccuracy ||
		fresh.OnlineRTAccuracy != reused.OnlineRTAccuracy ||
		fresh.Capacity != reused.Capacity ||
		fresh.CapacityOpt != reused.CapacityOpt {
		t.Errorf("%s: metrics diverge: fresh RT=%v/%v cap=%v/%v, reused RT=%v/%v cap=%v/%v",
			label,
			fresh.RTAccuracy, fresh.OnlineRTAccuracy, fresh.Capacity, fresh.CapacityOpt,
			reused.RTAccuracy, reused.OnlineRTAccuracy, reused.Capacity, reused.CapacityOpt)
		return
	}
	if len(fresh.Profile) != len(reused.Profile) || len(fresh.Test) != len(reused.Test) {
		t.Errorf("%s: observation counts diverge: %d/%d vs %d/%d", label,
			len(fresh.Profile), len(fresh.Test), len(reused.Profile), len(reused.Test))
		return
	}
	check := func(phase string, a, b []Observation) {
		for i := range a {
			if a[i].Window != b[i].Window || a[i].Label != b[i].Label || a[i].Response != b[i].Response {
				t.Errorf("%s: %s observation %d diverges: %+v vs %+v", label, phase, i, a[i], b[i])
				return
			}
			for m := range a[i].Vector {
				if a[i].Vector[m] != b[i].Vector[m] {
					t.Errorf("%s: %s observation %d vector[%d] diverges", label, phase, i, m)
					return
				}
			}
		}
	}
	check("profile", fresh.Profile, reused.Profile)
	check("test", fresh.Test, reused.Test)
}

// TestHarnessMatchesRun is the reuse-identity contract: a Harness run N times
// over different seeds produces, for every seed, exactly the result of a
// fresh covert.Run with that seed — every response time, every execution
// vector, every metric. This covers the whole reseeding chain (root split
// order, symbol refill, per-task noise streams, local shuffle streams,
// policy stream) and the engine/scheduler/server/policy Reset path, under
// both a non-randomizing and a randomizing policy with local shuffling on.
func TestHarnessMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"NoRandom", func(c *Config) { c.Policy = policies.NoRandom }},
		{"TimeDiceW-shuffled", func(c *Config) {
			c.Policy = policies.TimeDiceW
			c.ShuffleLocal = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.ProfileWindows = 60
			cfg.TestWindows = 120
			tc.mut(&cfg)

			h, err := NewHarness(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{3, 7, 3, 11} { // repeat 3: reuse must not drift
				c := cfg
				c.Seed = seed
				fresh, err := Run(c)
				if err != nil {
					t.Fatalf("seed %d fresh: %v", seed, err)
				}
				reused, err := h.Run(seed)
				if err != nil {
					t.Fatalf("seed %d reused: %v", seed, err)
				}
				sameResult(t, tc.name, fresh, reused)
			}
		})
	}
}

// countingSink counts events; attaching it exercises the full telemetry
// emission path without retaining anything.
type countingSink struct{ n int }

func (c *countingSink) Event(telemetry.Event) { c.n++ }

// TestHarnessTelemetryInvariance pins the Config.Telemetry contract: a
// covert trial with a sink attached (e.g. a flight recorder) decodes to
// exactly the same Result as one without, and the sink actually observes
// the simulation.
func TestHarnessTelemetryInvariance(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = policies.TimeDiceW
	cfg.ProfileWindows = 60
	cfg.TestWindows = 120

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	cfg.Telemetry = sink
	recorded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sink.n == 0 {
		t.Fatal("attached telemetry sink observed no events")
	}
	sameResult(t, "telemetry-attached", plain, recorded)
}
