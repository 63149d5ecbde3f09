package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rtreebuf/internal/datagen"
	"rtreebuf/internal/storage"
)

// TestMain lets the test binary stand in for the command: re-executed
// with RTREELOAD_AS_MAIN set it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("RTREELOAD_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func rtreeload(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RTREELOAD_AS_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("rtreeload %v: %v\n%s", args, err, out)
	}
}

func loadItems(t *testing.T, path string) int {
	t.Helper()
	fm, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	tree, err := storage.LoadTree(fm)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Len()
}

// TestOutReplacesIndexAtomically: running rtreeload -o over an existing
// index must never write into that file — a run that dies mid-save would
// leave it torn. The new index is built beside it and renamed into place:
// a handle on the old file still reads the whole old tree afterwards, the
// path reads the whole new one, and no temporary file stays behind.
func TestOutReplacesIndexAtomically(t *testing.T) {
	dir := t.TempDir()
	small, large := filepath.Join(dir, "small.ds"), filepath.Join(dir, "large.ds")
	if err := datagen.WriteRectsFile(small, datagen.SyntheticRegions(300, 1)); err != nil {
		t.Fatal(err)
	}
	if err := datagen.WriteRectsFile(large, datagen.SyntheticRegions(900, 2)); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "index.rt")

	rtreeload(t, "-in", small, "-cap", "20", "-o", index)
	if got := loadItems(t, index); got != 300 {
		t.Fatalf("first run persisted %d items, want 300", got)
	}
	old, err := storage.OpenFile(index)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	rtreeload(t, "-in", large, "-cap", "20", "-o", index)
	if got := loadItems(t, index); got != 900 {
		t.Fatalf("second run persisted %d items, want 900", got)
	}
	tree, err := storage.LoadTree(old)
	if err != nil {
		t.Fatalf("the replaced index was written into: %v", err)
	}
	if tree.Len() != 300 {
		t.Fatalf("the replaced index was written into: %d items, want 300", tree.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("directory holds %d entries after two runs, want the two datasets and the index", len(entries))
	}
}
