package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with DATAGEN_AS_MAIN set it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("DATAGEN_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runDatagen runs the command on args and returns its exit code and
// combined output.
func runDatagen(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DATAGEN_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestUsageErrorsExitTwo: a negative -n and an unknown set are usage
// errors, reported in one line with exit 2, never a panic.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{{"-set", "bogus"}}
	for _, set := range []string{"tiger", "cfd", "points", "regions"} {
		cases = append(cases, []string{"-set", set, "-n", "-1"})
	}
	for _, args := range cases {
		code, out := runDatagen(t, args...)
		if code != 2 || strings.Count(out, "\n") != 1 || !strings.HasPrefix(out, "datagen: ") {
			t.Errorf("%v: exit %d, want 2 with one line:\n%s", args, code, out)
		}
	}
}

// TestWritesRequestedRecords: the harness runs the real command, which
// writes a header line and then one line a record.
func TestWritesRequestedRecords(t *testing.T) {
	code, out := runDatagen(t, "-set", "points", "-n", "3")
	if code != 0 || strings.Count(out, "\n") != 4 {
		t.Fatalf("exit %d, want 0 with a header and 3 records:\n%s", code, out)
	}
}
