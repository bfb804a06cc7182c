package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the daemon's main in place of the tests when the test
// binary is re-executed with STREAMD_TEST_MAIN=1, so a test can observe
// main's exit code and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("STREAMD_TEST_MAIN") == "1" {
		os.Args = append([]string{"streamd"}, strings.Fields(os.Getenv("STREAMD_TEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNonFiniteFlagsExit2 pins flag validation: a NaN or infinite
// -threshold, -min-prob, -level or -area-ft exits with code 2 and names
// the flag before anything listens. A NaN threshold used to compile, and
// the quantile plan panicked at its first window (Histogram.CDF(NaN)).
func TestNonFiniteFlagsExit2(t *testing.T) {
	for _, args := range []string{
		"-query quantile -threshold NaN",
		"-threshold +Inf",
		"-min-prob NaN",
		"-query quantile -level -Inf",
		"-area-ft Inf",
	} {
		// A daemon that accepts the flag serves until killed; the timeout
		// turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "STREAMD_TEST_MAIN=1", "STREAMD_TEST_ARGS="+args+" -addr 127.0.0.1:0")
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err %v, want exit status 2 (output %q)", args, err, out)
			continue
		}
		flagName := strings.Fields(args)[len(strings.Fields(args))-2]
		if !strings.Contains(string(out), flagName+" ") || !strings.Contains(string(out), "not a finite number") {
			t.Errorf("%s: output %q does not name %s as not finite", args, out, flagName)
		}
	}
}
