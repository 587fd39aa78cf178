// Package cliflag checks the command lines of the cmd/* tools so that every
// tool rejects a bad one the same way: a message on stderr naming the flag,
// and exit status 2, the status the flag package itself uses for a malformed
// command line. Anything else that goes wrong exits 1.
package cliflag

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
)

// usageError marks a command line the tool cannot run.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// Errorf formats a usage error. Its message should name the offending flag.
func Errorf(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Parse parses args into fs and marks a malformed command line as a usage
// error. With flag.ContinueOnError the flag package has already printed the
// problem and the usage text.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// NonNegative returns a usage error naming the first of the named int flags
// of fs that holds a negative value.
func NonNegative(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			return Errorf("-%s %d: must be >= 0", name, v)
		}
	}
	return nil
}

// OneOf returns a usage error unless the string flag name of fs holds one of
// values, compared case-insensitively.
func OneOf(fs *flag.FlagSet, name string, values ...string) error {
	v := fs.Lookup(name).Value.String()
	for _, ok := range values {
		if strings.EqualFold(v, ok) {
			return nil
		}
	}
	return Errorf("-%s %q: must be one of %s", name, v, strings.Join(values, " | "))
}

// Code is the exit status for err: 0 for nil and for -help (the flag package
// has printed the usage text), 2 for a usage error, 1 otherwise.
func Code(err error) int {
	var u usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		return 2
	default:
		return 1
	}
}

// Exit ends a tool whose run returned err: it returns on nil, and otherwise
// prints err after the tool's name (except for -help) and exits with
// Code(err).
func Exit(tool string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	os.Exit(Code(err))
}
