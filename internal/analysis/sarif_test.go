package analysis

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestWriteSARIFGolden compares the writer's output byte-for-byte against
// the checked-in golden file: the SARIF shape is an external contract
// (GitHub code scanning), so any drift must be a conscious decision.
// Regenerate with: go test ./internal/analysis -run WriteSARIFGolden -update
func TestWriteSARIFGolden(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("mod")
	analyzers := []*Analyzer{
		{Name: "sharecheck", Doc: "variable captured by a goroutine mutated on both sides of the spawn without a guard"},
		{Name: "errflow", Doc: "checkpoint-stage error returned as the operation error after the commit point"},
	}
	findings := []Finding{
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "p", "a.go"), Line: 12, Column: 3},
			Analyzer: "sharecheck",
			Message:  "captured n written in goroutine (go statement) and read in p.F at line 20 after the spawn, with no common lock, barrier, or atomic guard",
		},
		{
			Pos:      token.Position{Filename: filepath.Join(root, "internal", "p", "b.go"), Line: 7, Column: 9},
			Analyzer: "errflow",
			Message:  "rule no-post-commit-error-return: err (effects Sync) returned as the operation error after the commit point (Commit at a.go:4) in p.Update; checkpoint-stage failures must go to the sticky CheckpointErr/observability path, the committed update succeeded",
		},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, analyzers, findings); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sarif_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
