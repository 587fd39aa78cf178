// Command blinderbench regenerates the §V-C comparison with BLINDER:
// the Fig. 18 task-order covert channel under no defense, under BLINDER's
// local-schedule transform, and under TimeDice — plus the paper's §III
// response-time channel with the receiver BLINDER-transformed.
package main

import (
	"flag"
	"fmt"
	"os"

	"timedice/internal/cliflag"
	"timedice/internal/experiments"
	"timedice/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("blinderbench", flag.ContinueOnError)
	windows := fs.Int("windows", 2000, "signaled bits per configuration")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "trial workers: 0 = one per CPU, 1 = sequential")
	obsFlags := obs.AddFlags(fs)
	err := cliflag.Parse(fs, os.Args[1:])
	if err == nil {
		err = cliflag.NonNegative(fs, "windows", "parallel")
	}
	cliflag.Exit("blinderbench", err)
	ledger, srv, err := obsFlags.Start("blinderbench", fs, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blinderbench:", err)
		os.Exit(2)
	}
	sc := experiments.Scale{TestWindows: *windows, Seed: *seed, Parallel: *parallel}
	_, runErr := experiments.Fig18(sc, os.Stdout)
	if srv != nil {
		srv.Close() //nolint:errcheck // shutting down
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "blinderbench:", runErr)
		ledger.Finish(1) //nolint:errcheck // the experiment error dominates
		os.Exit(1)
	}
	if err := ledger.Finish(0); err != nil {
		fmt.Fprintln(os.Stderr, "blinderbench:", err)
	}
}
