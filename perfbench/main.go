// Command perfbench is the repository's benchmark. It runs one workload —
// a simfuzz-style oracle campaign, the Fig. 12 mitigation grid, or one
// 256-partition TimeDice system — in process through the internal packages'
// public functions, checks the outputs, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this module first):
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the workload runs untraced and the end-to-end metrics are
// reported. With --trace 1 untraced and traced repetitions alternate; spans
// recorded around each layer call give the per-layer metrics, and the
// difference between the two kinds of repetition is the tracing overhead.
//
// Every repetition runs the same fixed input, built from --seed, until
// --seconds have passed; times are medians over repetitions. An item (a
// scenario, a grid cell, or the one large system) fails on a set-up error, a
// panic, an oracle violation, an output that differs between repetitions,
// or a disagreement with the reference path. Any failure makes the result
// incorrect and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is taken as early as package initialisation allows; the first
// repetition's set-up is timed from here.
var processStart = time.Now()

// warmupSeed seeds every workload's warm-up. The warm-up runs a fixed
// input rather than the workload's own, so set-up time does not depend on
// --seed (a TimeDice system's first period alone varies several-fold in
// work across seeds).
const warmupSeed = 1

// workload is one fixed input, rebuilt from the seed for each repetition.
type workload struct {
	name, why string
	// setup does the untimed part of one repetition — input generation,
	// bound analysis, warm-up — and returns the repetition.
	setup func(seed uint64) (rep, error)
}

// rep is one repetition of a workload.
type rep interface {
	// run is the timed operation; it records spans into tr when tr is
	// non-nil and must then produce outputs identical to an untraced run.
	run(tr *tracer)
	// outputs reports what the last run produced. It is called outside the
	// timed part.
	outputs() outputs
	// reference re-checks the last run's outputs against the reference
	// path, outside the timed part, and returns one message per failure.
	reference() []string
}

// outputs is what one run produced, item by item.
type outputs struct {
	// prints holds each item's checked outputs and exact counts, rendered
	// so that equal strings mean bit-identical results.
	prints []string
	// errs holds each item's failure, "" when it passed its checks.
	errs   []string
	counts counts
	// workers is the number of goroutines the run kept busy.
	workers int
}

// counts are the exact per-layer counts; each must repeat bit for bit at a
// fixed seed.
type counts struct {
	Decisions, ArenaBytes, FixpointIters, InterferenceTerms int64
	Events, CacheHits, CacheMisses                          int64
}

var workloads = []workload{
	{
		name: "campaign",
		why:  "simfuzz trial loop over tiny systems: sink fan-out and the event digest take most of the time; the SVM is unused",
		setup: func(seed uint64) (rep, error) {
			return newCampaign(seed, campaignScenarios)
		},
	},
	{
		name: "fig12",
		why:  "the paper's headline grid: engine stepping plus TimeDice Pick, then RT decode and SVM; no oracle suite or digest; fans out over nproc workers",
		setup: func(seed uint64) (rep, error) {
			return newFig12(seed, runtime.NumCPU())
		},
	},
	{
		name: "large_p",
		why:  "one 256-partition TimeDiceW system under the full oracle suite: Algorithm 3's O(P*h) candidate search takes nearly all of the time",
		setup: func(seed uint64) (rep, error) {
			return newLargeP(seed, largePHorizon)
		},
	},
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: campaign, fig12 or large_p")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to repeat the workload")
	trace := fs.Int("trace", 0, "1 alternates traced and untraced repetitions and reports per-layer metrics")
	spansDir := fs.String("spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload campaign|fig12|large_p --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	m := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	res := m.result(*trace == 1)
	fmt.Printf("perfbench: workload %s, seed %d, %d cores, %s %s/%s\n",
		w.name, *seed, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	m.print(os.Stdout, res)
	if *trace == 1 && len(m.traced) > 0 {
		name := fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)
		if err := writeSpans(*spansDir, name, m.medianTraced().tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
	if !res.Correct {
		os.Exit(1)
	}
}

// tracedRep is one traced repetition: its spans, outputs and wall time.
type tracedRep struct {
	tr   *tracer
	out  outputs
	wall time.Duration
}

// measurement collects every repetition of one invocation.
type measurement struct {
	setups, walls     []time.Duration
	allocs            []uint64
	traced            []tracedRep
	attempted, failed int
	failures          []string // the first few, for the report
	rssPeak           float64  // MB
}

const (
	minReps     = 3 // untraced repetitions, at least
	minTraced   = 2 // traced repetitions under --trace 1, at least
	maxFailures = 5 // failure messages kept for the report
)

func (m *measurement) fail(msg string) {
	m.failed++
	if len(m.failures) < maxFailures {
		m.failures = append(m.failures, msg)
	}
}

// measure repeats the workload until budget has passed, then checks the
// first repetition's outputs against the reference path.
func measure(w workload, seed uint64, budget time.Duration, traced bool) *measurement {
	m := &measurement{}
	deadline := time.Now().Add(budget)
	var first *outputs
	var firstRep rep
	for r := 0; ; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		rp, err := w.setup(seed)
		if err != nil {
			m.attempted++
			m.fail("setup: " + err.Error())
			return m
		}
		m.setups = append(m.setups, time.Since(t0))

		var tr *tracer
		if traced && r%2 == 1 {
			tr = newTracer()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t1 := time.Now()
		perr := protect(func() { rp.run(tr) })
		wall := time.Since(t1)
		runtime.ReadMemStats(&ms1)
		if perr != nil {
			m.attempted++
			m.fail(fmt.Sprintf("repetition %d: %v", r, perr))
			return m
		}

		out := rp.outputs()
		for i, p := range out.prints {
			m.attempted++
			switch {
			case out.errs[i] != "":
				m.fail(fmt.Sprintf("repetition %d item %d: %s", r, i, out.errs[i]))
			case first != nil && (i >= len(first.prints) || p != first.prints[i]):
				m.fail(fmt.Sprintf("repetition %d item %d: output drifted from repetition 0", r, i))
			}
		}
		if first != nil && len(out.prints) != len(first.prints) {
			m.fail(fmt.Sprintf("repetition %d: %d items, repetition 0 had %d", r, len(out.prints), len(first.prints)))
		}
		if first == nil {
			first, firstRep = &out, rp
		}
		if tr == nil {
			m.walls = append(m.walls, wall)
			m.allocs = append(m.allocs, ms1.TotalAlloc-ms0.TotalAlloc)
		} else {
			m.traced = append(m.traced, tracedRep{tr: tr, out: out, wall: wall})
		}
		if time.Now().After(deadline) && len(m.walls) >= minReps && (!traced || len(m.traced) >= minTraced) {
			break
		}
	}
	m.rssPeak = peakRSSMB()
	for _, msg := range firstRep.reference() {
		m.fail("reference: " + msg)
	}
	if m.failed > m.attempted {
		m.failed = m.attempted
	}
	return m
}

// protect runs fn, turning a panic into an error.
func protect(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (m *measurement) result(traced bool) result {
	res := result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: max(m.attempted, 1),
		Failed:    m.failed,
		Metrics:   map[string]value{},
	}
	if m.attempted == 0 {
		res.Failed = 1
	}
	table, vals := endToEnd, map[string]float64{
		"wall_s":      median(m.walls) / 1e9,
		"setup_s":     median(m.setups) / 1e9,
		"alloc_mb":    median(m.allocs) / 1e6,
		"rss_peak_mb": m.rssPeak,
		"pass_frac":   1 - float64(res.Failed)/float64(res.Attempted),
	}
	if traced {
		table, vals = perLayer, m.layerValues()
	}
	for _, mt := range table {
		res.Metrics[mt.Name] = value{Value: vals[mt.Name], Unit: mt.Unit}
	}
	return res
}

// medianTraced is the traced repetition with the median wall time; its
// spans give the per-layer breakdown, so the layer times add up exactly.
func (m *measurement) medianTraced() tracedRep {
	reps := append([]tracedRep(nil), m.traced...)
	sort.Slice(reps, func(a, b int) bool { return reps[a].wall < reps[b].wall })
	return reps[len(reps)/2]
}

// layers are the span names booked as layer self time; the rest (the root,
// runner.map and the per-item spans) is glue and lands in the remainder.
var layers = []string{
	"gen", "build", "engine.run", "core.pick", "telemetry.sink", "check.suite",
	"check.digest", "obs.recorder", "runner.fold", "covert.build",
	"covert.simulate", "ml.train", "ml.predict", "trace.clock",
}

// breakdown is one traced repetition's time, layer by layer. It satisfies
//
//	workers x wall = sum of self over layers + idle + remainder
type breakdown struct {
	wall                  time.Duration
	workers               int
	self, dur             map[string]time.Duration // per span name
	calls                 map[string]int64
	busy, idle, remainder time.Duration
}

func newBreakdown(tr tracedRep) breakdown {
	b := breakdown{
		wall: tr.wall, workers: max(tr.out.workers, 1),
		self: map[string]time.Duration{}, dur: map[string]time.Duration{}, calls: map[string]int64{},
	}
	spans := tr.tr.spans
	var mapped time.Duration
	for i, self := range selfTimes(spans) {
		s := spans[i]
		b.self[s.Name] += self
		b.dur[s.Name] += s.dur()
		b.calls[s.Name]++
		switch {
		case s.Name == "runner.map":
			mapped += s.dur()
		case s.Parent != 0 && spans[s.Parent-1].Name == "runner.map":
			b.busy += s.dur()
		}
	}
	b.idle = time.Duration(b.workers)*mapped - b.busy
	b.remainder = time.Duration(b.workers)*b.wall - b.idle
	for _, l := range layers {
		b.remainder -= b.self[l]
	}
	return b
}

// layerValues derives the per-layer metrics from the median traced
// repetition.
func (m *measurement) layerValues() map[string]float64 {
	tr := m.medianTraced()
	b := newBreakdown(tr)
	c := tr.out.counts
	walls := make([]time.Duration, len(m.traced))
	for i, r := range m.traced {
		walls[i] = r.wall
	}
	v := map[string]float64{
		"trace.wall_s":            b.wall.Seconds(),
		"trace.overhead_s":        (median(walls) - median(m.walls)) / 1e9,
		"trace.clock_s":           b.self["trace.clock"].Seconds(),
		"trace.remainder_s":       b.remainder.Seconds(),
		"gen.busy_s":              b.self["gen"].Seconds(),
		"gen.calls":               float64(b.calls["gen"]),
		"build.busy_s":            (b.self["build"] + b.self["covert.build"]).Seconds(),
		"build.calls":             float64(b.calls["build"] + b.calls["covert.build"]),
		"engine.self_s":           b.self["engine.run"].Seconds(),
		"engine.decisions":        float64(c.Decisions),
		"engine.arena_bytes":      float64(c.ArenaBytes),
		"core.pick_s":             b.self["core.pick"].Seconds(),
		"core.pick_p50_us":        tr.tr.pickHist.Quantile(0.5),
		"core.pick_p99_us":        tr.tr.pickHist.Quantile(0.99),
		"core.fixpoint_iters":     float64(c.FixpointIters),
		"core.interference_terms": float64(c.InterferenceTerms),
		"telemetry.sink_s":        b.dur["telemetry.sink"].Seconds(),
		"check.suite_s":           b.self["check.suite"].Seconds(),
		"check.digest_s":          b.self["check.digest"].Seconds(),
		"check.events":            float64(c.Events),
		"obs.recorder_s":          b.self["obs.recorder"].Seconds(),
		"runner.busy_s":           b.busy.Seconds(),
		"runner.idle_s":           b.idle.Seconds(),
		"runner.fold_s":           b.self["runner.fold"].Seconds(),
		"covert.build_s":          b.self["covert.build"].Seconds(),
		"covert.simulate_s":       b.self["covert.simulate"].Seconds(),
		"ml.train_s":              b.self["ml.train"].Seconds(),
		"ml.predict_s":            b.self["ml.predict"].Seconds(),
	}
	if c.Events > 0 {
		v["engine.ns_per_event"] = float64(b.self["engine.run"].Nanoseconds()) / float64(c.Events)
	}
	if n := c.CacheHits + c.CacheMisses; n > 0 {
		v["core.cache_hit_frac"] = float64(c.CacheHits) / float64(n)
	}
	return v
}

// print writes the human-readable report: every metric with its unit, the
// sample counts, and for a traced run the layer self-time breakdown.
func (m *measurement) print(w io.Writer, res result) {
	fmt.Fprintf(w, "  repetitions: %d untraced, %d traced; items attempted %d, failed %d (fail_frac %.6g)\n",
		len(m.walls), len(m.traced), res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for _, f := range m.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	table := endToEnd
	if len(m.traced) > 0 {
		table = perLayer
	}
	for _, mt := range table {
		fmt.Fprintf(w, "  %-24s %14.6g %-5s", mt.Name, res.Metrics[mt.Name].Value, mt.Unit)
		if mt.Moves != "" {
			fmt.Fprintf(w, "  moves: %s", mt.Moves)
		}
		fmt.Fprintln(w)
	}
	walls := make([]string, len(m.walls))
	for i, d := range m.walls {
		walls[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	fmt.Fprintf(w, "  untraced wall_s per repetition: %s\n", strings.Join(walls, " "))
	if len(m.traced) == 0 {
		return
	}
	b := newBreakdown(m.medianTraced())
	capacity := time.Duration(b.workers) * b.wall
	fmt.Fprintf(w, "  layer self times of the median traced repetition (%d workers x %.4f s):\n", b.workers, b.wall.Seconds())
	for _, l := range layers {
		if d := b.self[l]; d != 0 {
			fmt.Fprintf(w, "    %-16s %10.4f s %6.1f%%\n", l, d.Seconds(), 100*float64(d)/float64(capacity))
		}
	}
	fmt.Fprintf(w, "    %-16s %10.4f s\n    %-16s %10.4f s\n", "runner.idle", b.idle.Seconds(), "remainder", b.remainder.Seconds())
}

// median returns the median of xs in their own unit, 0 when empty.
func median[T ~int64 | ~uint64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n%2 == 0 {
		return (float64(s[n/2-1]) + float64(s[n/2])) / 2
	}
	return float64(s[n/2])
}
