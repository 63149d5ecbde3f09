package experiments

import (
	"fmt"
	"math"

	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/sim"
)

// Extension experiments (ids prefixed "ext-"): not artifacts of the
// paper, but studies its framework makes natural — the ablations
// DESIGN.md commits to.

func init() {
	register("ext-loading",
		"Extension: all loading algorithms (incl. R*, STR) under the buffer model, Long Beach data",
		runExtLoading)
	register("ext-warmup",
		"Extension: warm-up transient — model's cumulative-miss curve vs cold-start simulation",
		runExtWarmup)
	register("ext-staticlru",
		"Extension: LRU model vs optimal static hot-set placement across buffer sizes",
		runExtStaticLRU)
}

func runExtLoading(cfg Config) (*Report, error) {
	rep := &Report{ID: "ext-loading", Title: "Loading algorithms beyond the paper's three"}

	algs := pack.Algorithms()
	cols := []string{"buffer"}
	for _, a := range algs {
		cols = append(cols, algoLabel(a))
	}
	// The six tree builds dominate this experiment; run them over the
	// engine's worker budget (cached, so fig6/fig7 share the overlap).
	trees := make([]*rtree.Tree, len(algs))
	err := cfg.forEachPoint(len(algs), func(i int) error {
		var terr error
		trees[i], terr = cfg.tigerTree(algs[i], fig6NodeCap)
		return terr
	})
	if err != nil {
		return nil, err
	}
	for _, panel := range []struct {
		name   string
		qx, qy float64
	}{
		{"point queries", 0, 0},
		{"1% region queries", 0.1, 0.1},
	} {
		sweeps := make([][]float64, len(algs))
		for i := range algs {
			p, err := uniformPredictor(trees[i], panel.qx, panel.qy)
			if err != nil {
				return nil, err
			}
			sweeps[i] = p.DiskAccessesSweep(Fig6BufferSizes)
		}
		tbl := Table{
			Name:    "ext-loading " + panel.name,
			Caption: "Predicted disk accesses per query (node size 100).",
			Columns: cols,
		}
		for j, b := range Fig6BufferSizes {
			row := []string{FInt(b)}
			for _, s := range sweeps {
				row = append(row, F(s[j]))
			}
			tbl.AddRow(row...)
		}
		rep.Tables = append(rep.Tables, tbl)
	}
	rep.Notes = append(rep.Notes,
		"R* sits between TAT and the packed loaders: better clustering than Guttman insertion, but packed trees fill nodes completely",
		"the buffer-dependence of the ranking extends to the new algorithms — compare columns across rows before picking a loader")
	return rep, nil
}

func runExtWarmup(cfg Config) (*Report, error) {
	t, err := cfg.tigerTree(pack.HilbertSort, fig6NodeCap)
	if err != nil {
		return nil, err
	}
	pred, err := uniformPredictor(t, 0, 0)
	if err != nil {
		return nil, err
	}
	const buffer = 200
	checkpoints := []int{0, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

	counts := make([]float64, len(checkpoints))
	for i, c := range checkpoints {
		counts[i] = float64(c)
	}
	model := pred.WarmupCurve(buffer, counts)
	trace, err := sim.TraceWarmup(t.Levels(), sim.UniformPoints{}, sim.Config{BufferSize: buffer, Seed: cfg.seed()}, checkpoints)
	if err != nil {
		return nil, err
	}
	// A cold buffer has missed nothing before its first query; the trace
	// samples the positive checkpoints.
	measured := make([]uint64, 1, len(checkpoints))
	for _, pt := range trace.Points {
		measured = append(measured, pt.Misses)
	}

	tbl := Table{
		Name:    "ext-warmup",
		Caption: fmt.Sprintf("Cumulative buffer misses from a cold start (HS tree, buffer %d, point queries).", buffer),
		Columns: []string{"queries", "model_D(N)", "model_misses", "sim_misses", "diff"},
	}
	worst := 0.0
	for i := range checkpoints {
		diff := 0.0
		if measured[i] > 0 {
			diff = (model[i].ExpectedMisses - float64(measured[i])) / float64(measured[i])
		}
		if math.Abs(diff) > worst && checkpoints[i] >= 100 {
			worst = math.Abs(diff)
		}
		tbl.AddRow(FInt(checkpoints[i]), F(model[i].DistinctNodes),
			F(model[i].ExpectedMisses), FInt(int(measured[i])), FPct(diff))
	}
	rep := &Report{ID: "ext-warmup", Title: "Warm-up transient: model vs cold-start simulation"}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"worst disagreement past 100 queries: %.1f%% — the two-phase (fill, then steady-state) approximation underlying the buffer model holds", 100*worst))
	rep.Notes = append(rep.Notes, fmt.Sprintf("model N* (buffer fills) = %.0f queries", pred.WarmupQueries(buffer)))
	return rep, nil
}

func runExtStaticLRU(cfg Config) (*Report, error) {
	t, err := cfg.tigerTree(pack.HilbertSort, fig6NodeCap)
	if err != nil {
		return nil, err
	}
	pred, err := uniformPredictor(t, 0, 0)
	if err != nil {
		return nil, err
	}
	tbl := Table{
		Name:    "ext-staticlru",
		Caption: "Disk accesses per point query: LRU model vs caching the B hottest nodes statically.",
		Columns: []string{"buffer", "lru", "static_hot_set", "lru_inefficiency"},
	}
	lru := pred.DiskAccessesSweep(Fig6BufferSizes)
	for i, b := range Fig6BufferSizes {
		tbl.AddRow(FInt(b), F(lru[i]),
			F(pred.DiskAccessesStatic(b)), F(pred.LRUInefficiency(b)))
	}
	rep := &Report{ID: "ext-staticlru", Title: "How much does LRU leave on the table?"}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"small gaps mean LRU already keeps the hot set resident — the paper's finding that explicit pinning rarely beats plain LRU, seen from the other side",
		"at very small buffers the LRU column can dip below the static optimum: documented model optimism (core.DiskAccessesStatic), not a real effect")
	return rep, nil
}
