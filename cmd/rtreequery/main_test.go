package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// TestMain lets the test binary stand in for the command: re-executed
// with RTREEQUERY_AS_MAIN set it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RTREEQUERY_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRejectsFewerThanOneQuery: the measured figure is misses over -n,
// so a run of no queries, or of a negative number, is a usage error
// rather than a NaN or an infinite percentage.
func TestRejectsFewerThanOneQuery(t *testing.T) {
	path := smallTreeFile(t)
	for _, n := range []string{"0", "-5", "1"} {
		cmd := exec.Command(os.Args[0], "-tree", path, "-buffer", "10", "-n", n)
		cmd.Env = append(os.Environ(), "RTREEQUERY_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		want := 2
		if n == "1" {
			want = 0
		}
		if code := cmd.ProcessState.ExitCode(); code != want || strings.Contains(string(out), "NaN") || strings.Contains(string(out), "Inf") {
			t.Errorf("-n %s: exit %d, want %d:\n%s", n, code, want, out)
		}
	}
}

// TestRejectsNaNQuerySize: a NaN extent fails the model's size check as
// a negative one does, so -qx NaN exits 1 like -qx -1 instead of
// printing NaN figures.
func TestRejectsNaNQuerySize(t *testing.T) {
	path := smallTreeFile(t)
	for _, qx := range []string{"-1", "NaN"} {
		cmd := exec.Command(os.Args[0], "-tree", path, "-buffer", "10", "-n", "10", "-qx", qx)
		cmd.Env = append(os.Environ(), "RTREEQUERY_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 || strings.Contains(string(out), "measured") {
			t.Errorf("-qx %s: exit %d, want 1:\n%s", qx, code, out)
		}
	}
}

// smallTreeFile saves a 300-region packed tree and returns its path.
func smallTreeFile(t *testing.T) string {
	t.Helper()
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 20},
		datagen.Items(datagen.SyntheticRegions(300, 1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.rt")
	if err := storage.SaveTreeAtomic(path, storage.DefaultPageSize, tree); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWarmupComparisonModelsThePinnedBuffer: with -pin k the simulator
// trace runs against a buffer whose top k levels are pinned, so the
// "analytic N*" printed beside it must be the fill point of that buffer —
// the levels below the pins filling the B - P pages left, the N*
// DiskAccessesPinned evaluates Equation 6 at — not the unpinned model's.
// The reference search over the unpinned levels alone is the oracle.
func TestWarmupComparisonModelsThePinnedBuffer(t *testing.T) {
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 10},
		datagen.Items(datagen.SyntheticRegions(4000, 88)))
	if err != nil {
		t.Fatal(err)
	}
	levels := tree.Levels()
	qm, err := core.NewUniformQueries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := core.NewPredictor(levels, qm)
	probs := core.AccessProbs(levels, qm)
	const buffer = 60

	printed := make(map[int]string)
	for pin := 0; pin <= 3; pin++ {
		var rest []float64
		for _, lvl := range probs[pin:] {
			rest = append(rest, lvl...)
		}
		want := core.WarmupQueries(rest, buffer-pred.PinnedPages(pin))
		if got, err := pred.WarmupQueriesPinned(buffer, pin); err != nil || got != want {
			t.Fatalf("pin %d: WarmupQueriesPinned = %g, %v; reference %g", pin, got, err, want)
		}

		out := warmupComparison(levels, pred, buffer, pin, 0, 0, 42, 0)
		printed[pin] = fmt.Sprintf("analytic N* = %.0f queries,", want)
		if !strings.Contains(out, printed[pin]) {
			t.Errorf("pin %d: output lacks %q:\n%s", pin, printed[pin], out)
		}
	}
	if printed[3] == printed[0] {
		t.Fatalf("fixture too weak: pinning 3 levels leaves the fill point at %s", printed[0])
	}
}
