// Command timedice-trace runs a named scenario under a chosen global
// scheduling policy with full telemetry attached and writes the observability
// artifacts:
//
//	<out>/trace.json    Chrome trace-event JSON — open in Perfetto
//	                    (https://ui.perfetto.dev) or chrome://tracing; one
//	                    track per partition plus policy-decision and
//	                    inversion-window tracks
//	<out>/events.jsonl  the full structured event log, one event per line
//	<out>/metrics.txt   metrics-registry dump (human-readable)
//	<out>/metrics.csv   metrics-registry dump (machine-readable)
//
// and prints the run summary to stdout. With -summary FILE it instead
// recomputes and prints the summary from a previously saved events.jsonl —
// the offline audit path.
//
// Usage:
//
//	timedice-trace -scenario tableI -policy TimeDiceW -dur 2s -seed 1 -out trace-out
//	timedice-trace -summary trace-out/events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timedice/internal/cliflag"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func main() {
	cliflag.Exit("timedice-trace", run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("timedice-trace", flag.ContinueOnError)
	scenario := fs.String("scenario", "tableI", "scenario: tableI | tableI-light | covert | car | three")
	policyName := fs.String("policy", "TimeDiceW", "policy: NoRandom | TimeDiceU | TimeDiceW | TDMA")
	dur := fs.Duration("dur", 2*time.Second, "simulated duration")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "trace-out", "output directory for trace/event/metrics artifacts")
	summaryPath := fs.String("summary", "", "print the summary of a saved events.jsonl and exit")
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	if *dur < 0 {
		return cliflag.Errorf("-dur %v: must not be negative", *dur)
	}

	if *summaryPath != "" {
		return printSummary(*summaryPath, stdout)
	}

	res, err := executeTrace(traceConfig{
		Scenario: *scenario,
		Policy:   *policyName,
		Dur:      vtime.Duration(dur.Microseconds()),
		Seed:     *seed,
		OutDir:   *out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario %s under %s for %v (seed %d)\nartifacts in %s: trace.json, events.jsonl, metrics.txt, metrics.csv\n\n",
		*scenario, *policyName, vtime.Duration(dur.Microseconds()), *seed, *out)
	return res.Summary.WriteText(stdout, res.PartitionNames)
}

func printSummary(path string, stdout *os.File) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	sum := telemetry.Summarize(events)
	fmt.Fprintf(stdout, "summary of %s:\n", path)
	return sum.WriteText(stdout, nil)
}

// traceConfig parameterizes one traced run.
type traceConfig struct {
	Scenario string
	Policy   string
	Dur      vtime.Duration
	Seed     uint64
	OutDir   string
}

// traceResult reports what a traced run produced, for the CLI output and the
// round-trip tests.
type traceResult struct {
	System         *engine.System
	PartitionNames []string
	Events         []telemetry.Event
	Summary        telemetry.Summary
	EventsPath     string
	TracePath      string
}

// executeTrace builds the scenario, runs it with a recorder + JSONL sink +
// metrics collector attached, and writes all artifacts.
func executeTrace(cfg traceConfig) (*traceResult, error) {
	spec, sender, err := buildScenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	kind, err := parsePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	built, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if sender != nil {
		sender(built)
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		return nil, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	eventsPath := filepath.Join(cfg.OutDir, "events.jsonl")
	ef, err := os.Create(eventsPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()

	names := make([]string, len(sys.Partitions))
	for i, p := range sys.Partitions {
		names[i] = p.Name
	}
	rec := telemetry.NewRecorder()
	jsonl := telemetry.NewJSONLSink(ef)
	coll := telemetry.NewCollector(nil, names)
	sys.AttachTelemetry(telemetry.Multi{rec, jsonl, coll})
	sys.MeasureLatency = true

	sys.Run(vtime.Time(cfg.Dur))
	sys.FlushTelemetry()
	if err := jsonl.Flush(); err != nil {
		return nil, err
	}

	tracePath := filepath.Join(cfg.OutDir, "trace.json")
	tf, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	if err := telemetry.WriteChromeTrace(tf, rec.Events(), names); err != nil {
		return nil, err
	}

	// Fold the Pick-latency histogram into the registry before dumping.
	if h := sys.Counters.PolicyLatency; h != nil {
		coll.Registry().Gauge("policy.pick_latency_p50_us").Set(h.Quantile(0.5))
		coll.Registry().Gauge("policy.pick_latency_p99_us").Set(h.Quantile(0.99))
		coll.Registry().Gauge("policy.pick_latency_max_us").Set(h.Max())
	}
	mf, err := os.Create(filepath.Join(cfg.OutDir, "metrics.txt"))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	if err := coll.Registry().WriteText(mf); err != nil {
		return nil, err
	}
	cf, err := os.Create(filepath.Join(cfg.OutDir, "metrics.csv"))
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	if err := coll.Registry().WriteCSV(cf); err != nil {
		return nil, err
	}

	return &traceResult{
		System:         sys,
		PartitionNames: names,
		Events:         rec.Events(),
		Summary:        telemetry.Summarize(rec.Events()),
		EventsPath:     eventsPath,
		TracePath:      tracePath,
	}, nil
}

// buildScenario maps a scenario name to its system spec plus an optional
// instrumentation step applied to the built system (the covert sender).
func buildScenario(name string) (model.SystemSpec, func(*model.Built), error) {
	switch name {
	case "tableI":
		return workload.TableIBase(), nil, nil
	case "tableI-light":
		return workload.TableILight(), nil, nil
	case "car":
		return workload.Car(), nil, nil
	case "three":
		return workload.ThreePartition(), nil, nil
	case "covert":
		// The Table I base system with P2 as a covert sender: one task that
		// alternates between consuming the whole budget and almost nothing
		// every 150 ms monitoring window (the §III amplitude channel).
		spec := workload.TableIBase()
		budget := spec.Partitions[1].Budget
		spec.Partitions[1].Tasks = []model.TaskSpec{{
			Name: "exfil", Period: vtime.MS(50), WCET: budget,
		}}
		window := vtime.MS(150)
		instrument := func(b *model.Built) {
			b.Task[model.TaskKey(spec.Partitions[1].Name, "exfil")].ExecFn =
				func(_ int64, arrival vtime.Time) vtime.Duration {
					if (arrival/vtime.Time(window))%2 == 1 {
						return budget
					}
					return vtime.US(10)
				}
		}
		return spec, instrument, nil
	default:
		return model.SystemSpec{}, nil, fmt.Errorf("unknown scenario %q (want tableI | tableI-light | covert | car | three)", name)
	}
}

func parsePolicy(name string) (policies.Kind, error) {
	switch name {
	case "NoRandom":
		return policies.NoRandom, nil
	case "TimeDiceU":
		return policies.TimeDiceU, nil
	case "TimeDiceW":
		return policies.TimeDiceW, nil
	case "TDMA":
		return policies.TDMA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want NoRandom | TimeDiceU | TimeDiceW | TDMA)", name)
	}
}
