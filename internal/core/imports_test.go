package core

import (
	"go/build"
	"strings"
	"testing"
)

// TestNoIOImports keeps the analytic model disk-free: every figure depends on it
// computing the same numbers from the same inputs, so the package's own
// code imports nothing that reaches the operating system, the network or
// a log. Only direct imports are read: fmt itself imports os, so a
// transitive check could not pass, and what buffer and obs do is theirs
// to keep.
func TestNoIOImports(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg.Imports {
		for _, refused := range []string{"os", "log", "syscall", "net"} {
			if path == refused || strings.HasPrefix(path, refused+"/") {
				t.Errorf("imports %s", path)
			}
		}
	}
}
