package cmd_test

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBadFlagsExit2 builds every command and runs it with bad flag values:
// each must exit 2 with a message naming the flag, before it writes anything
// (no run ledger, no artifacts) and without panicking.
func TestBadFlagsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every command")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		cmd  string
		args []string
		flag string // the flag the message must name
	}{
		{"covertbench", []string{"-parallel", "-3"}, "-parallel"},
		{"covertbench", []string{"-parallel", "-1"}, "-parallel"},
		{"covertbench", []string{"-scale", "nope"}, "-scale"},
		{"covertbench", []string{"-fig", "nope"}, "-fig"},
		{"covertbench", []string{"-parallel", "two"}, "-parallel"},
		{"simfuzz", []string{"-parallel", "-2"}, "-parallel"},
		{"simfuzz", []string{"-scenarios", "-1"}, "-scenarios"},
		{"simfuzz", []string{"-recwindow", "-1"}, "-recwindow"},
		{"report", []string{"-scale", "nope"}, "-scale"},
		{"report", []string{"-parallel", "-1"}, "-parallel"},
		{"overheadbench", []string{"-secs", "-1"}, "-secs"},
		{"overheadbench", []string{"-parallel", "-1"}, "-parallel"},
		{"blinderbench", []string{"-windows", "-5"}, "-windows"},
		{"blinderbench", []string{"-parallel", "-1"}, "-parallel"},
		{"wcrt", []string{"-empirical", "-2"}, "-empirical"},
		{"wcrt", []string{"-alpha", "0"}, "-alpha"},
		{"wcrt", []string{"-beta", "2"}, "-beta"},
		{"figures", []string{"-windows", "-1"}, "-windows"},
		{"figures", []string{"-parallel", "-1"}, "-parallel"},
		{"opa", nil, "-config"},
		{"timedice-sim", []string{"-dur", "0"}, "-dur"},
		{"timedice-sim", []string{"-cell", "500ns"}, "-cell"},
		{"timedice-trace", []string{"-dur", "-1s"}, "-dur"},
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// Every command rejects an undefined flag the same way.
		cases = append(cases, struct {
			cmd  string
			args []string
			flag string
		}{e.Name(), []string{"-no-such-flag"}, "-no-such-flag"})
	}
	for _, tc := range cases {
		t.Run(tc.cmd+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			c := exec.CommandContext(ctx, filepath.Join(bin, tc.cmd), tc.args...)
			c.Dir = dir
			var stderr strings.Builder
			c.Stderr = &stderr
			err := c.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("err = %v, want exit status 2; stderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.Contains(msg, tc.flag) {
				t.Errorf("stderr does not name %s:\n%s", tc.flag, msg)
			}
			if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine ") {
				t.Errorf("panicked:\n%s", msg)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("rejected run wrote %d entries into its working directory (first: %s)", len(left), left[0].Name())
			}
		})
	}
}
