package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// TestQuickSuiteGolden holds every table and note of the reproduction to
// a recorded run: the reports of the whole quick suite, run on the serial
// engine, must equal testdata/quick.golden byte for byte. The golden is
// what `rtreebench -quick` prints minus its two kinds of timing line
// ("[<id> completed in ...]", "[all N experiments in ...]"), so a change
// that moves any printed figure has to regenerate it (`go test
// ./internal/experiments -run TestQuickSuiteGolden -update`) and show the
// diff.
func TestQuickSuiteGolden(t *testing.T) {
	reports, err := RunAll(IDs(), Config{Quick: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString(rep.Text())
		b.WriteByte('\n')
	}
	got := b.String()

	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("quick suite differs from %s at line %d:\n got  %q\n want %q", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("quick suite has %d lines, %s has %d", len(gotLines), path, len(wantLines))
}
