// Command opa assigns partition priorities with Audsley's Optimal Priority
// Assignment: given a JSON system spec (in any declaration order), it finds
// an ordering under which every partition passes the busy-interval
// schedulability test — the precondition TimeDice preserves — or reports
// that none exists.
//
// Usage:
//
//	opa -config system.json [-emit]
package main

import (
	"flag"
	"fmt"
	"os"

	"timedice/internal/analysis"
	"timedice/internal/cliflag"
	"timedice/internal/model"
)

func main() {
	cliflag.Exit("opa", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("opa", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to a JSON system spec (required)")
	emit := fs.Bool("emit", false, "print the reordered spec as JSON")
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	if *configPath == "" {
		return cliflag.Errorf("-config is required")
	}
	f, err := os.Open(*configPath)
	if err != nil {
		return err
	}
	spec, err := model.ReadSystem(f)
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}

	order, err := analysis.AssignPriorities(spec)
	if err != nil {
		return err
	}
	re, err := analysis.Reorder(spec, order)
	if err != nil {
		return err
	}
	fmt.Printf("schedulable priority order for %q (highest first):\n", spec.Name)
	for pos, idx := range order {
		p := spec.Partitions[idx]
		fmt.Printf("  %2d. %-12s B=%v T=%v (u=%.3f)\n", pos+1, p.Name, p.Budget, p.Period, p.Utilization())
	}
	if declared := analysis.SystemSchedulable(spec); !declared {
		fmt.Println("note: the declared order was NOT schedulable; use the order above.")
	}
	if *emit {
		data, err := re.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	return nil
}
