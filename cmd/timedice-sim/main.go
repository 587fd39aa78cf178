// Command timedice-sim runs a configured system under a chosen global
// scheduling policy and prints a schedule trace (ASCII Gantt or CSV) plus
// summary statistics — the tool behind the paper's Fig. 6.
//
// Usage:
//
//	timedice-sim -system three -policy TimeDiceW -dur 100ms -trace gantt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"timedice/internal/cliflag"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/trace"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func main() {
	cliflag.Exit("timedice-sim", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("timedice-sim", flag.ContinueOnError)
	systemName := fs.String("system", "three", "workload: three | tableI | tableI-light | car | tableI-x2 | tableI-x4")
	configPath := fs.String("config", "", "path to a JSON system spec (overrides -system)")
	policyName := fs.String("policy", "TimeDiceW", "policy: NoRandom | TimeDiceU | TimeDiceW | TDMA")
	dur := fs.Duration("dur", 100*time.Millisecond, "simulated duration")
	traceMode := fs.String("trace", "gantt", "trace output: gantt | csv | none")
	pngPath := fs.String("png", "", "also write the trace as a PNG Gantt chart to this path")
	cell := fs.Duration("cell", time.Millisecond, "gantt cell size")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	// Virtual time counts whole microseconds: a shorter -dur leaves no time
	// to report rates over, and a shorter -cell an empty Gantt column.
	if *dur < time.Microsecond {
		return cliflag.Errorf("-dur %v: must be at least 1µs", *dur)
	}
	if *cell < time.Microsecond {
		return cliflag.Errorf("-cell %v: must be at least 1µs", *cell)
	}

	var spec model.SystemSpec
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		spec, err = model.ReadSystem(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
	} else {
		var err error
		spec, err = systemByName(*systemName)
		if err != nil {
			return err
		}
	}
	kind, err := policyByName(*policyName)
	if err != nil {
		return err
	}

	built, err := spec.Build()
	if err != nil {
		return err
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		return err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(*seed))
	if err != nil {
		return err
	}

	horizon := vtime.Time(vtime.Duration(dur.Microseconds()))
	rec := trace.NewRecorder(0, horizon)
	if *traceMode != "none" || *pngPath != "" {
		sys.TraceFn = rec.Hook()
	}
	sys.Run(horizon)

	if *pngPath != "" {
		f, err := os.Create(*pngPath)
		if err != nil {
			return err
		}
		err = rec.GanttPNG(len(spec.Partitions), vtime.Duration((*cell).Microseconds()), 8, f)
		if closeErr := f.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return fmt.Errorf("write png: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *pngPath)
	}

	names := make([]string, len(spec.Partitions))
	for i, p := range spec.Partitions {
		names[i] = p.Name
	}
	switch *traceMode {
	case "gantt":
		fmt.Printf("system=%s policy=%s dur=%v seed=%d\n", spec.Name, pol.Name(), dur, *seed)
		fmt.Print(rec.Gantt(names, vtime.Duration((*cell).Microseconds())))
	case "csv":
		fmt.Print(rec.CSV())
	case "none":
	default:
		return fmt.Errorf("unknown trace mode %q", *traceMode)
	}

	c := sys.Counters
	secs := vtime.Duration(dur.Microseconds()).Seconds()
	fmt.Printf("\ndecisions=%d (%.1f/s) switches=%d (%.1f/s) busy=%.1f%% idle=%.1f%%\n",
		c.Decisions, float64(c.Decisions)/secs, c.Switches, float64(c.Switches)/secs,
		100*c.BusyTime.Seconds()/secs, 100*c.IdleTime.Seconds()/secs)
	for i, p := range spec.Partitions {
		fmt.Printf("%-12s budget=%v/%v  cpu=%v (%.1f%%)\n",
			p.Name, p.Budget, p.Period, sys.PartitionTime(i),
			100*sys.PartitionTime(i).Seconds()/secs)
	}
	return nil
}

func systemByName(name string) (model.SystemSpec, error) {
	switch strings.ToLower(name) {
	case "three":
		return workload.ThreePartition(), nil
	case "tablei", "table1":
		return workload.TableIBase(), nil
	case "tablei-light", "table1-light":
		return workload.TableILight(), nil
	case "car":
		return workload.Car(), nil
	case "tablei-x2":
		return workload.Scale(workload.TableIBase(), 2), nil
	case "tablei-x4":
		return workload.Scale(workload.TableIBase(), 4), nil
	default:
		return model.SystemSpec{}, fmt.Errorf("unknown system %q", name)
	}
}

func policyByName(name string) (policies.Kind, error) {
	switch strings.ToLower(name) {
	case "norandom", "nr":
		return policies.NoRandom, nil
	case "timediceu", "tdu":
		return policies.TimeDiceU, nil
	case "timedicew", "tdw", "timedice", "td":
		return policies.TimeDiceW, nil
	case "tdma":
		return policies.TDMA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", name)
	}
}
