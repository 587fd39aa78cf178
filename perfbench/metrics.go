package main

// metric is one reported figure. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps the two in step.
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves says which end-to-end metric a per-layer metric should move, and
	// on which workload: the prediction a change to that layer is judged by.
	Moves string
}

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// setup_s is the median over repetitions of the untimed set-up before
	// each timed run (the first timed from process start): input
	// generation, bound analysis and warm-up.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	// pass_frac is 1 - fail_frac: a fraction that is 0 on a clean run cannot
	// carry a relative bound.
	{Name: "pass_frac", Unit: "frac", Better: "higher", Bound: 0.01},
}

// perLayer is what a traced run reports. Times are self times (a span's
// duration less the part its child spans cover) unless the name says busy,
// which includes children; counts are exact and must repeat bit for bit at
// a fixed seed.
var perLayer = []metric{
	{Name: "trace.wall_s", Unit: "s", Better: "lower", Moves: "the traced wall_s the layer times below account for"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "reported, never claimed: traced minus untraced wall_s"},
	{Name: "trace.clock_s", Unit: "s", Better: "lower", Moves: "reported, never claimed: clock reads the tracing adds"},
	{Name: "trace.remainder_s", Unit: "s", Better: "lower", Moves: "reported, never claimed: workers x trace.wall_s not booked to a layer"},
	{Name: "gen.busy_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign; absent elsewhere"},
	{Name: "gen.calls", Unit: "count", Better: "lower", Moves: "wall_s on campaign; absent elsewhere"},
	{Name: "build.busy_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign and fig12; wall_s on large_p, whose setup_s also runs the bound analysis"},
	{Name: "build.calls", Unit: "count", Better: "lower", Moves: "wall_s on campaign and fig12"},
	{Name: "engine.self_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign and large_p; inside covert.simulate_s on fig12"},
	{Name: "engine.ns_per_event", Unit: "ns", Better: "lower", Moves: "wall_s on campaign and large_p"},
	{Name: "engine.decisions", Unit: "count", Better: "lower", Moves: "step work on campaign and large_p"},
	{Name: "engine.arena_bytes", Unit: "bytes", Better: "lower", Moves: "step work on campaign and large_p"},
	{Name: "core.pick_s", Unit: "s", Better: "lower", Moves: "wall_s on large_p (most of it); little on campaign; inside covert.simulate_s on fig12"},
	{Name: "core.pick_p50_us", Unit: "us", Better: "lower", Moves: "wall_s on large_p"},
	{Name: "core.pick_p99_us", Unit: "us", Better: "lower", Moves: "wall_s on large_p"},
	{Name: "core.fixpoint_iters", Unit: "count", Better: "lower", Moves: "wall_s on large_p"},
	{Name: "core.interference_terms", Unit: "count", Better: "lower", Moves: "wall_s on large_p"},
	{Name: "core.cache_hit_frac", Unit: "frac", Better: "higher", Moves: "wall_s on large_p"},
	{Name: "telemetry.sink_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign (includes check.suite_s and obs.recorder_s of the events); none on fig12, which attaches no sink"},
	{Name: "check.suite_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign; small on large_p; absent on fig12 (Suite.Event plus the end-of-run checks)"},
	{Name: "check.digest_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign: a second digest over the same events, measuring the digest share of check.suite_s (its time is part of trace.overhead_s)"},
	{Name: "check.events", Unit: "count", Better: "lower", Moves: "sink work on campaign and large_p"},
	{Name: "obs.recorder_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign only"},
	{Name: "runner.busy_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12 and campaign"},
	{Name: "runner.idle_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12 (fan-out imbalance)"},
	{Name: "runner.fold_s", Unit: "s", Better: "lower", Moves: "wall_s on campaign"},
	{Name: "covert.build_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12"},
	{Name: "covert.simulate_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12"},
	{Name: "ml.train_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12 only"},
	{Name: "ml.predict_s", Unit: "s", Better: "lower", Moves: "wall_s on fig12 only"},
}
