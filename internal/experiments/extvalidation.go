package experiments

import (
	"fmt"
	"math"

	"rtreebuf/internal/core"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/stats"
)

func init() {
	register("ext-validation",
		"Extension: Table 1 methodology for region and data-driven queries (the paper reports these 'gave similar results')",
		runExtValidation)
}

// runExtValidation extends the Table 1 validation to the paper's other
// two query models. Section 4 states that "simulation of region queries
// and data-driven queries gave similar results" without printing them;
// this experiment prints them. Buffers below twice the per-query node
// footprint are flagged rather than asserted: the independence assumption
// is documented to weaken there (see EXPERIMENTS.md).
func runExtValidation(cfg Config) (*Report, error) {
	n := cfg.scale(table1DataSize)
	points := cfg.synthPoints(n, cfg.seed())
	t, err := cfg.synthPointsTree(n, cfg.seed(), pack.HilbertSort, table1NodeCap)
	if err != nil {
		return nil, err
	}
	levels := t.Levels()
	centers := geom.Centers(geom.PointRects(points))

	regionW, err := sim.NewUniformRegions(0.1, 0.1)
	if err != nil {
		return nil, err
	}
	ddW, err := sim.NewDataDriven(0, 0, centers)
	if err != nil {
		return nil, err
	}
	regionQM, err := core.NewUniformQueries(0.1, 0.1)
	if err != nil {
		return nil, err
	}
	ddQM, err := core.NewDataDrivenQueries(0, 0, centers)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		name string
		w    sim.Workload
		pred *core.Predictor
	}{
		{"region 0.1x0.1", regionW, core.NewPredictor(levels, regionQM)},
		{"data-driven point", ddW, core.NewPredictor(levels, ddQM)},
	}

	rep := &Report{ID: "ext-validation", Title: "Model validation for region and data-driven queries (HS tree)"}
	tbl := Table{
		Name:    "ext-validation",
		Caption: "Average disk accesses per query; '*' marks buffers below 2x the per-query footprint, where the model is only indicative.",
		Columns: []string{"workload", "buffer", "sim", "model", "diff", "regime"},
	}
	worstSafe := 0.0
	for _, tc := range cases {
		// One geometry per workload, shared by all buffer sizes; the
		// independent per-size simulations run over the engine's worker
		// budget and land in their own slots, so row order is unchanged.
		g, err := sim.Prepare(levels, tc.w)
		if err != nil {
			return nil, err
		}
		model := tc.pred.DiskAccessesSweep(Table1BufferSizes)
		sims := make([]sim.Result, len(Table1BufferSizes))
		err = cfg.forEachPoint(len(Table1BufferSizes), func(i int) error {
			var serr error
			sims[i], serr = sim.RunPrepared(g, tc.w, sim.Config{
				BufferSize: Table1BufferSizes[i],
				Batches:    cfg.simBatches(),
				BatchSize:  cfg.simBatchSize(),
				Seed:       cfg.seed() + uint64(Table1BufferSizes[i]),
			})
			return serr
		})
		if err != nil {
			return nil, err
		}
		for i, b := range Table1BufferSizes {
			diff := stats.PercentDiff(sims[i].DiskPerQuery.Mean, model[i])
			regime := "ok"
			if float64(b) < 2*tc.pred.NodesVisited() {
				regime = "*"
			} else if math.Abs(diff) > worstSafe && !math.IsInf(diff, 0) {
				worstSafe = math.Abs(diff)
			}
			tbl.AddRow(tc.name, FInt(b), F(sims[i].DiskPerQuery.Mean), F(model[i]), FPct(diff), regime)
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"worst disagreement outside the small-buffer regime: %.1f%% — consistent with the paper's 'similar results' remark", 100*worstSafe))
	return rep, nil
}
