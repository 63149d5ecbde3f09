package experiments

import (
	"fmt"
	"math/rand/v2"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/monitor"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/storage"
)

func init() {
	register("ext-system",
		"Extension: three fidelity levels side by side — analytic model, MBR-list simulation, and a real paged R-tree through an LRU pool",
		runExtSystem)
}

// runExtSystem closes the loop the paper leaves implicit. The paper
// validates its model against an MBR-list simulation; this experiment
// additionally runs the *actual system* — node pages on a disk manager,
// decoded through a buffer pool by real recursive searches — and puts all
// three disk-access figures in one table. The model-vs-simulation gap
// stays within a few percent; the model-vs-system gap is larger and
// systematic, because a real search always reads the root and descends
// only into visited parents, correlations the independence model ignores.
func runExtSystem(cfg Config) (*Report, error) {
	rects := cfg.tigerRects()
	items := itemsOf(rects)
	const nodeCap = 100
	t, err := buildTree(pack.HilbertSort, items, nodeCap)
	if err != nil {
		return nil, err
	}
	levels := t.Levels()

	dm, err := storage.NewMemoryManager(storage.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	if err := storage.SaveTree(dm, t); err != nil {
		return nil, err
	}

	queries := 20000
	if cfg.Quick {
		queries = 5000
	}
	const qside = 0.05

	pred, err := uniformPredictor(t, qside, qside)
	if err != nil {
		return nil, err
	}
	workload, err := sim.NewUniformRegions(qside, qside)
	if err != nil {
		return nil, err
	}

	tbl := Table{
		Name: "ext-system",
		Caption: fmt.Sprintf(
			"Disk accesses per %gx%g region query, HS tree over Long Beach data (node size %d).",
			qside, qside, nodeCap),
		Columns: []string{"buffer", "model", "mbr_sim", "paged_system", "model_vs_sim", "model_vs_system"},
	}
	monTbl := Table{
		Name: "ext-system-monitor",
		Caption: fmt.Sprintf(
			"Online model-residual monitor over the same paged runs (%d-query windows).",
			monitorWindow(queries)),
		Columns: []string{"buffer", "windows", "mean_residual", "max_abs_residual", "drift_alarms"},
	}
	rep := &Report{ID: "ext-system", Title: "Model vs simulation vs the real paged system"}

	// Buffer sizes as fractions of the tree so quick and full runs both
	// exercise the interesting (non-saturated) regime.
	total := t.NodeCount()
	buffers := []int{total / 10, total / 4, total / 2, 3 * total / 4}
	for _, b := range buffers {
		if b < 2 {
			b = 2
		}
		model := pred.DiskAccesses(b)

		res, err := sim.Run(levels, workload, sim.Config{
			BufferSize: b, Batches: cfg.simBatches(), BatchSize: cfg.simBatchSize(),
			Seed: cfg.seed() + uint64(b),
		})
		if err != nil {
			return nil, err
		}

		paged, err := storage.OpenPagedTreeWith(dm, b, cfg.Policy, cfg.Shards)
		if err != nil {
			return nil, err
		}
		var mon *monitor.Monitor
		if cfg.Monitor {
			// The monitor and the pool's metrics mirror must share one
			// registry — the monitor reads the counters the mirror writes.
			// Each buffer size gets a private registry so windows never mix.
			reg := obs.NewRegistry()
			label := cfg.Policy
			if label == "" {
				label = "lru"
			}
			paged.SetMetrics(buffer.NewMetrics(reg, label))
			prediction, err := monitor.PredictionFor(pred, label, b, 0, cfg.Shards)
			if err != nil {
				return nil, err
			}
			mon = monitor.New(reg, prediction, monitor.Config{Window: monitorWindow(queries)})
		}
		measured, err := drivePagedWorkload(paged, qside, queries, cfg.seed()+uint64(b), mon)
		if err != nil {
			return nil, err
		}

		tbl.AddRow(FInt(b), F(model), F(res.DiskPerQuery.Mean), F(measured),
			FPct(rel(model, res.DiskPerQuery.Mean)), FPct(rel(model, measured)))
		if mon != nil {
			s := mon.Status()
			monTbl.AddRow(FInt(b), FInt(int(s.Windows)),
				F(s.MeanResidual), F(s.MaxAbsResidual), FInt(int(s.Alarms)))
		}
	}
	rep.Tables = append(rep.Tables, tbl)
	if cfg.Monitor {
		rep.Tables = append(rep.Tables, monTbl)
		rep.Notes = append(rep.Notes,
			"monitor residuals are systematic, not noise: the real system's descent correlations shift the observed rate off the independence model by a stable margin")
	}
	rep.Notes = append(rep.Notes,
		"the MBR-list simulation is the paper's validation target: agreement within a few percent",
		"the paged system differs more: real searches always read the root and only descend into visited parents — fidelity the model trades for tractability")
	return rep, nil
}

// monitorWindow sizes the residual window so a run yields five windows.
func monitorWindow(queries int) int { return queries / 5 }

// drivePagedWorkload runs uniform region queries against the paged tree
// and returns measured pool misses per query (after a warm-up quarter).
// A non-nil monitor is rebased at the warm-up boundary and ticked once
// per measured query.
func drivePagedWorkload(paged *storage.PagedTree, qside float64, queries int, seed uint64, mon *monitor.Monitor) (float64, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x77))
	warm := queries / 4
	for i := 0; i < warm+queries; i++ {
		if i == warm {
			paged.Pool().ResetStats()
			mon.Rebase()
		}
		cx := qside + rng.Float64()*(1-qside)
		cy := qside + rng.Float64()*(1-qside)
		if _, err := paged.SearchWindow(geom.Rect{
			MinX: cx - qside, MinY: cy - qside, MaxX: cx, MaxY: cy,
		}); err != nil {
			return 0, err
		}
		if i >= warm {
			mon.OnQuery()
		}
	}
	_, misses, _ := paged.Pool().Stats()
	return float64(misses) / float64(queries), nil
}

func rel(model, measured float64) float64 {
	if measured == 0 {
		return 0
	}
	return (model - measured) / measured
}
