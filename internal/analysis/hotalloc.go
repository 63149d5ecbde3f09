package analysis

import "fmt"

// hotalloc reports heap-allocation sites inside functions transitively
// reachable from the query hot roots: the paper's core cost is per-query
// node probability evaluation plus the buffer lookup, so a hidden
// allocation there shifts every measured curve. Deliberate allocations
// (result materialization, one-time setup on a hot type) are annotated
// with `//lint:allow hotalloc <reason>` at the site.
func checkHotAlloc(m *Module, roots []RootSpec) []Finding {
	parent := m.Graph.Reachable(roots)
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if _, hot := parent[n]; !hot {
			continue
		}
		for _, a := range n.Allocs {
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(a.Pos),
				Analyzer: "hotalloc",
				Message:  fmt.Sprintf("%s in hot function %s (%s)", a.What, n, RootPath(parent, n)),
			})
		}
	}
	return out
}

// HotRoots names the per-operation entry points hotalloc guards: one
// query, one page access, one node's model term, one metric update.
// Drivers that run those operations in a loop (a simulation run, a
// buffer-size sweep, metric registration) allocate once per run by
// design and are not roots. The guard test TestHotRootsExist keeps this
// list attached to real code.
func HotRoots() []RootSpec {
	const mod = "rtreebuf"
	return []RootSpec{
		{Path: mod + "/internal/rtree", Recv: "Tree", Name: "Search*"},
		// A kNN search on a recycled frontier allocates its result copy.
		{Path: mod + "/internal/rtree", Recv: "Tree", Name: "Nearest*"},
		// One update of the paper's tuple-at-a-time tree: a steady-state
		// insert allocates only the nodes its splits add, a delete nothing
		// but what its reinsertions' splits add.
		{Path: mod + "/internal/rtree", Recv: "Tree", Name: "Insert*"},
		{Path: mod + "/internal/rtree", Recv: "Tree", Name: "Delete"},
		{Path: mod + "/internal/buffer", Recv: "Pool", Name: "Get"},
		{Path: mod + "/internal/buffer", Recv: "ShardedPool", Name: "Get"},
		// The buffered query: a node visit on a resident page borrows the
		// frame (View) and reads it in place, so a steady-state query
		// allocates its result slice and nothing else.
		{Path: mod + "/internal/buffer", Recv: "Pool", Name: "View"},
		{Path: mod + "/internal/buffer", Recv: "ShardedPool", Name: "View"},
		{Path: mod + "/internal/storage", Recv: "PagedTree", Name: "Search*"},
		{Path: mod + "/internal/storage", Recv: "PagedTree", Name: "Nearest"},
		{Path: mod + "/internal/core", Recv: "*", Name: "AccessProb"},
		{Path: mod + "/internal/core", Name: "AccessProbs"},
		// The model's per-node pass: every policy's EDT is one sum over
		// the nodes, and the sweep's N* search is distinctAtLeast per
		// probe. sum calls its term through a function value, so term is
		// rooted by name.
		{Path: mod + "/internal/core", Recv: "Predictor", Name: "sum"},
		{Path: mod + "/internal/core", Recv: "sweeper", Name: "distinctAtLeast"},
		{Path: mod + "/internal/core", Recv: "sweeper", Name: "term"},
		// One simulated query. The replica draws its pages through a
		// function value (source), so the geometry probe behind it is
		// rooted by name.
		{Path: mod + "/internal/sim", Recv: "replica", Name: "query"},
		{Path: mod + "/internal/sim", Recv: "replica", Name: "coldQuery"},
		{Path: mod + "/internal/sim", Recv: "Geometry", Name: "touched"},
		// The obs write paths ride the buffer/query hot path (as nil-receiver
		// no-ops when metrics are off); root them explicitly so an allocation
		// grown there is flagged even if a refactor detaches them from the
		// Pool.Get call graph.
		{Path: mod + "/internal/obs", Recv: "Counter", Name: "Inc"},
		{Path: mod + "/internal/obs", Recv: "Counter", Name: "Add"},
		{Path: mod + "/internal/obs", Recv: "Gauge", Name: "Set"},
		{Path: mod + "/internal/obs", Recv: "Histogram", Name: "Observe"},
		{Path: mod + "/internal/buffer", Recv: "Metrics", Name: "on*"},
	}
}
