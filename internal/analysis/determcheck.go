package analysis

import "fmt"

// determcheck enforces the reproducibility contract of the result
// pipeline: every byte the experiments write — simulator counters,
// report tables, exported metrics, saved tree pages — must be a pure
// function of the configuration and the seed. The check taints the
// nondeterminism sources the callgraph records as FactNondet intrinsics
// (map iteration order, time.Now/Since/Until, the global math/rand
// stream, selects with multiple ready cases) and reports any source
// reachable from a deterministic-result root, with the call chain as
// witness.
//
// Two idioms are deliberately outside the taint: per-replica seeded
// streams (`rand.New(rand.NewPCG(seed, replica))` — constructors and
// Seed are not sources, only the global stream is) and the timing
// sidecar (experiments.RunAllTimed stamps wall-clock Timings around
// Run; Run itself is the root, so the by-design time.Now there is not
// reachable from it).
func checkDeterm(m *Module, roots []RootSpec) []Finding {
	parent := m.Graph.Reachable(roots)
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if _, ok := parent[n]; !ok {
			continue
		}
		for _, in := range n.Intrinsics {
			if in.Fact&FactNondet == 0 {
				continue
			}
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(in.Pos),
				Analyzer: "determcheck",
				Message: fmt.Sprintf("nondeterminism source (%s) in %s is reachable from deterministic-result root: %s",
					in.What, n, RootPath(parent, n)),
			})
		}
	}
	return out
}

// DetermRoots names the deterministic-result entry points: functions
// whose outputs land in reports, exported metrics, or on disk, and must
// therefore be replayable from (config, seed) alone. The guard test
// TestDetermRootsExist keeps the list attached to real code.
func DetermRoots() []RootSpec {
	const mod = "rtreebuf"
	return []RootSpec{
		// Run* covers Run, RunPrepared, RunParallel, RunPreparedParallel
		// and RunTraced; TraceWarmup is the cold-start sampler.
		{Path: mod + "/internal/sim", Name: "Run*"},
		{Path: mod + "/internal/sim", Name: "TraceWarmup"},
		// experiments.Run produces the Report bytes; RunAllTimed is
		// deliberately NOT a root — its time.Now feeds only the Timing
		// sidecar, never the Report.
		{Path: mod + "/internal/experiments", Name: "Run"},
		{Path: mod + "/internal/obs", Name: "Write*"},
		{Path: mod + "/internal/storage", Name: "SaveTree*"},
		{Path: mod + "/internal/storage", Name: "EncodeNode"},
		// The write path: recovery must be a pure function of the log
		// bytes (every reopen of the same crashed state yields the same
		// pages), and dirty-page flushing must emit writes in an order
		// derived from the data, not from map iteration or a clock.
		// These are I/O-bearing by design, so they live here and not in
		// PureRoots — the contract is determinism, not disk-freedom.
		{Path: mod + "/internal/storage", Name: "Recover"},
		{Path: mod + "/internal/storage", Name: "OpenWAL"},
		{Path: mod + "/internal/buffer", Recv: "*", Name: "FlushDirty"},
	}
}
