package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSystemByName(t *testing.T) {
	cases := map[string]int{
		"three":        3,
		"tableI":       5,
		"tablei-light": 5,
		"car":          4,
		"tableI-x2":    10,
		"tableI-x4":    20,
	}
	for name, wantParts := range cases {
		spec, err := systemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spec.Partitions) != wantParts {
			t.Errorf("%s: %d partitions, want %d", name, len(spec.Partitions), wantParts)
		}
	}
	if _, err := systemByName("nope"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"NoRandom", "nr", "TimeDiceU", "tdu", "TimeDiceW", "td", "timedice", "TDMA"} {
		if _, err := policyByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := policyByName("rr"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Smoke the whole CLI path including PNG and config loading.
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "sys.json")
	png := filepath.Join(dir, "out.png")
	const doc = `{"name":"t","partitions":[
	  {"name":"A","periodMillis":10,"budgetMillis":2,
	   "tasks":[{"name":"a","periodMillis":20,"wcetMillis":2}]}]}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-config", cfgPath, "-policy", "TimeDiceW", "-dur", "50ms", "-trace", "none", "-png", png})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(png); err != nil || st.Size() == 0 {
		t.Errorf("png not written: %v", err)
	}
	if err := run([]string{"-system", "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Errorf("bogus system: %v", err)
	}
	if err := run([]string{"-trace", "wat"}); err == nil {
		t.Error("bad trace mode accepted")
	}
	// Virtual time counts whole microseconds: shorter durations must be
	// rejected with a message, not panic in the Gantt renderer or print
	// negative rates.
	for _, args := range [][]string{
		{"-cell", "0"}, {"-cell", "500ns"}, {"-cell", "-1ms"},
		{"-dur", "-1s"}, {"-dur", "0"}, {"-dur", "999ns"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want a message naming %s", args, err, args[0])
		}
	}
}
