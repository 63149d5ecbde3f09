package analysis

import (
	"fmt"
	"strings"
)

// iopurity enforces that the simulation and analytic-model layers stay
// deterministic and disk-free: every experiment figure depends on the
// model and the simulator computing identical access sequences, so a
// code path from either into real I/O (storage, os, net) is a layering
// bug even when it happens to work. The check is transitive through the
// call graph, so a violation introduced three calls deep in a helper
// package is still pinned to the root that reaches it, with the chain.
func checkIOPurity(m *Module, roots []RootSpec) []Finding {
	g := m.Graph
	var out []Finding
	seen := make(map[*FuncNode]bool)
	for _, spec := range roots {
		for _, n := range g.Resolve(spec) {
			if seen[n] {
				continue
			}
			seen[n] = true
			if n.Facts&FactDoesIO == 0 {
				continue
			}
			chain := strings.Join(g.FactChain(n, FactDoesIO), "; ")
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(n.Decl.Pos()),
				Analyzer: "iopurity",
				Message:  fmt.Sprintf("%s must stay disk-free but transitively does I/O: %s", n, chain),
			})
		}
	}
	return out
}

// PureRoots names the functions iopurity holds to the no-I/O contract:
// the simulation entry points and the whole analytic model package.
func PureRoots() []RootSpec {
	const mod = "rtreebuf"
	return []RootSpec{
		// Run* covers Run, RunPrepared and RunSource;
		// TraceWarmup is the cold-start sampler.
		{Path: mod + "/internal/sim", Name: "Run*"},
		{Path: mod + "/internal/sim", Name: "TraceWarmup"},
		{Path: mod + "/internal/core", Recv: "*", Name: "*"},
	}
}
