package cliflag

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func newFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("parallel", 0, "")
	fs.Int("windows", 1, "")
	fs.String("scale", "quick", "")
	return fs
}

// TestChecks pins each check's verdict, the flag its message names, and the
// exit status the error maps to.
func TestChecks(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // flag the error must name; "" = valid
	}{
		{nil, ""},
		{[]string{"-parallel", "0", "-windows", "7", "-scale", "FULL"}, ""},
		{[]string{"-parallel", "-3"}, "-parallel"},
		{[]string{"-windows", "-1"}, "-windows"},
		{[]string{"-scale", "nope"}, "-scale"},
		{[]string{"-parallel", "x"}, "-parallel"},
		{[]string{"-nope"}, "-nope"},
	} {
		fs := newFlags()
		err := Parse(fs, tc.args)
		if err == nil {
			err = NonNegative(fs, "parallel", "windows")
		}
		if err == nil {
			err = OneOf(fs, "scale", "quick", "full")
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v, want nil", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: %v, want an error naming %s", tc.args, err, tc.want)
		case tc.want != "" && Code(err) != 2:
			t.Errorf("%v: exit status %d, want 2", tc.args, Code(err))
		}
	}
	if c := Code(Parse(newFlags(), []string{"-help"})); c != 0 {
		t.Errorf("-help: exit status %d, want 0", c)
	}
	if c := Code(errors.New("boom")); c != 1 {
		t.Errorf("plain error: exit status %d, want 1", c)
	}
	if c := Code(nil); c != 0 {
		t.Errorf("nil: exit status %d, want 0", c)
	}
}
