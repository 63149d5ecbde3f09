// Command rtreequery drives a query workload against a persisted R-tree
// through an LRU buffer pool and reports measured disk accesses per query
// next to the cost model's prediction — the paper's claim, checkable on
// any tree file produced by rtreeload.
//
// Usage:
//
//	datagen -set tiger -o tiger.ds
//	rtreeload -in tiger.ds -alg hs -cap 100 -o tiger.rt
//	rtreequery -tree tiger.rt -buffer 200 -qx 0.05 -qy 0.05 -n 20000
//	rtreequery -tree tiger.rt -buffer 500 -pin 2
//	rtreequery -tree tiger.rt -buffer 200 -metrics          # obs dump + warm-up trace
//	rtreequery -tree tiger.rt -buffer 200 -monitor          # residual monitor + flight recorder
//	rtreequery -tree tiger.rt -debug-addr 127.0.0.1:6060    # /metrics + pprof + flight recorder
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/core"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/monitor"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/stats"
	"rtreebuf/internal/storage"
)

func main() {
	treePath := flag.String("tree", "", "page file produced by rtreeload (required)")
	bufferPages := flag.Int("buffer", 200, "buffer pool capacity in pages")
	policy := flag.String("policy", "lru", "replacement policy: "+strings.Join(buffer.PolicyNames(), ", "))
	shards := flag.Int("shards", 1, "buffer pool shards (>1 selects the lock-striped concurrent pool)")
	qx := flag.Float64("qx", 0, "query width (0 = point queries)")
	qy := flag.Float64("qy", 0, "query height (0 = point queries)")
	n := flag.Int("n", 20000, "measured queries (a quarter as many again warm the buffer)")
	pin := flag.Int("pin", 0, "pin the top N tree levels in the buffer")
	seed := flag.Uint64("seed", 42, "workload seed")
	metrics := flag.Bool("metrics", false, "collect and print observability metrics, per-level hit rates, and the model-vs-measured warm-up trace")
	monitorFlag := flag.Bool("monitor", false, "track the model residual online (windowed drift detector) and keep a flight recorder of the most expensive queries")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/pprof, and /debug/flightrecorder on this address (keeps the process alive after the report until interrupted)")
	flag.Parse()

	if *treePath == "" {
		fmt.Fprintln(os.Stderr, "rtreequery: -tree is required")
		flag.Usage()
		os.Exit(2)
	}

	// One registry feeds the -metrics dump, the -monitor report, and the
	// -debug-addr endpoint; nil (all mirrors disabled, zero overhead)
	// when none is asked for. The flight recorder rides with -monitor.
	var reg *obs.Registry
	if *metrics || *monitorFlag || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	var fr *obs.FlightRecorder
	if *monitorFlag {
		fr = obs.NewFlightRecorder(obs.DefaultFlightRecent, obs.DefaultFlightTop)
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServerWith(*debugAddr, reg, fr)
		fatalIf(err)
		defer ds.Close()
		fmt.Printf("debug:  serving /metrics, /debug/pprof, and /debug/flightrecorder on http://%s\n", ds.Addr)
	}

	dm, err := storage.OpenFile(*treePath)
	fatalIf(err)
	defer dm.Close()
	storage.SetManagerMetrics(dm, storage.NewMetrics(reg))

	paged, err := storage.OpenPagedTreeWith(dm, *bufferPages, *policy, *shards)
	fatalIf(err)
	meta := paged.Meta()
	fmt.Printf("tree:   %d items, %d pages, levels %v\n", meta.Items, meta.NumPages(), meta.Levels)
	fmt.Printf("buffer: %d pages (%s, %d shard(s)), pinning %d levels\n", *bufferPages, policyLabel(*policy), *shards, *pin)
	paged.Pool().SetMetrics(buffer.NewMetrics(reg, policyLabel(*policy)).
		WithLevels(buffer.LevelsFromCounts(meta.Levels), len(meta.Levels)))
	paged.SetFlightRecorder(fr)
	if *pin > 0 {
		fatalIf(paged.PinLevels(*pin))
	}

	// Model prediction needs the level MBRs: load the tree once in memory.
	tree, err := storage.LoadTree(dm)
	fatalIf(err)
	qm, err := core.NewUniformQueries(*qx, *qy)
	fatalIf(err)
	pred := core.NewPredictor(tree.Levels(), qm)
	prediction, err := monitor.PredictionFor(pred, policyLabel(*policy), *bufferPages, *pin, *shards)
	fatalIf(err)
	predicted, modelLabel := prediction.DiskPerQuery, prediction.Model
	var mon *monitor.Monitor
	if *monitorFlag {
		mon = monitor.New(reg, prediction, monitor.Config{})
	}

	rng := rand.New(rand.NewPCG(*seed, *seed^0xabcdef))
	warm := *n / 4
	dm.ResetStats() // LoadTree read every page; measure only the workload
	latency := reg.Histogram("query_latency_us")
	results := 0
	observedFill := 0 // N̂* of the real pool: query index at which it first filled
	for i := 0; i < warm+*n; i++ {
		if i == warm {
			paged.Pool().ResetStats()
			mon.Rebase()
		}
		cx := *qx + rng.Float64()*(1-*qx)
		cy := *qy + rng.Float64()*(1-*qy)
		begin := time.Now()
		hits, err := paged.SearchWindow(geom.Rect{
			MinX: cx - *qx, MinY: cy - *qy, MaxX: cx, MaxY: cy,
		})
		fatalIf(err)
		results += len(hits)
		if i >= warm {
			latency.Observe(float64(time.Since(begin).Microseconds()))
			mon.OnQuery()
		}
		if observedFill == 0 && paged.Pool().Resident() >= paged.Pool().Capacity() {
			observedFill = i + 1
		}
	}
	hits, misses, evictions := paged.Pool().Stats()
	measured := float64(misses) / float64(*n)

	fmt.Printf("\nworkload: %d uniform %gx%g queries (+%d warm-up), avg %.1f results/query\n",
		*n, *qx, *qy, warm, float64(results)/float64(warm+*n))
	fmt.Printf("pool:     %d hits, %d misses, %d evictions (hit ratio %.2f%%)\n",
		hits, misses, evictions, 100*paged.Pool().HitRatio())
	fmt.Printf("\ndisk accesses per query: measured %.4f, %s %.4f (%+.1f%%)\n",
		measured, modelLabel, predicted, 100*stats.PercentDiff(measured, predicted))
	if prediction.BracketHi > prediction.BracketLo {
		fmt.Printf("clockpro model bracket [A0 optimum, lru model]: [%.4f, %.4f]\n",
			prediction.BracketLo, prediction.BracketHi)
	}
	fmt.Printf("bufferless EPT (nodes visited per query): %.4f\n", pred.NodesVisited())
	printLatencyPercentiles(reg)

	if mon != nil {
		fmt.Println()
		fatalIf(mon.WriteText(os.Stdout))
		fmt.Println()
		fatalIf(fr.WriteText(os.Stdout, time.Microsecond))
	}

	if *metrics || *debugAddr != "" {
		fmt.Print(warmupComparison(tree.Levels(), pred, *bufferPages, *pin, *qx, *qy, *seed, observedFill))
		printLevelHitRates(reg, len(meta.Levels))
		fmt.Println("\nmetrics:")
		fatalIf(obs.WriteText(os.Stdout, reg))
	}

	if *debugAddr != "" {
		fmt.Println("\ndebug: serving until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// warmupComparison renders the analytic warm-up curve (D(N) and
// expected misses) next to a measured cold-start trace of the identical
// geometry, plus the three fill points: analytic N*, the trace's N̂*,
// and the N̂* observed by the real pool during this run's workload. Model
// and trace describe the same buffer: with the top pin levels pinned,
// both are the levels below them filling the pages the pins leave.
func warmupComparison(levels [][]geom.Rect, pred *core.Predictor, bufferPages, pin int, qx, qy float64, seed uint64, observedFill int) string {
	nstar, err := pred.WarmupQueriesPinned(bufferPages, pin)
	fatalIf(err)

	// Sample the curve around the fill point (quartiles to 4x), falling
	// back to a decade ladder when the buffer never fills under the model.
	var counts []int
	if !math.IsInf(nstar, 1) && nstar >= 1 {
		for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
			if c := int(math.Round(f * nstar)); c >= 1 {
				counts = append(counts, c)
			}
		}
	} else {
		counts = []int{10, 100, 1000, 10000}
	}
	sort.Ints(counts)

	var w sim.Workload
	if qx == 0 && qy == 0 {
		w = sim.UniformPoints{}
	} else {
		w, err = sim.NewUniformRegions(qx, qy)
		fatalIf(err)
	}
	trace, err := sim.TraceWarmup(levels, w, sim.Config{
		BufferSize: bufferPages,
		PinLevels:  pin,
		Seed:       seed,
	}, counts)
	fatalIf(err)

	// The trace samples each distinct count once; the model follows it.
	sampled := make([]float64, len(trace.Points))
	for i, pt := range trace.Points {
		sampled[i] = float64(pt.Queries)
	}
	model, err := pred.WarmupCurvePinned(bufferPages, pin, sampled)
	fatalIf(err)

	var out strings.Builder
	fmt.Fprintf(&out, "\nwarm-up (model vs measured, buffer %d pages):\n", bufferPages)
	fmt.Fprintf(&out, "  %10s  %12s  %12s  %14s  %14s\n", "N", "D(N) model", "D^(N) meas", "misses model", "misses meas")
	for i, pt := range trace.Points {
		fmt.Fprintf(&out, "  %10d  %12.1f  %12d  %14.1f  %14d\n",
			pt.Queries, model[i].DistinctNodes, pt.DistinctPages, model[i].ExpectedMisses, pt.Misses)
	}
	fmt.Fprintf(&out, "buffer fill: analytic N* = %s, observed N^* = %s (trace), %s (pool workload)\n",
		fmtQueries(nstar), fmtFill(trace.FillQueries), fmtFill(observedFill))
	return out.String()
}

func fmtQueries(n float64) string {
	if math.IsInf(n, 1) {
		return "never (buffer exceeds tree)"
	}
	return fmt.Sprintf("%.0f queries", n)
}

func fmtFill(n int) string {
	if n == 0 {
		return "never"
	}
	return fmt.Sprintf("%d queries", n)
}

// printLevelHitRates renders per-tree-level hit rates from the buffer's
// obs series.
func printLevelHitRates(reg *obs.Registry, levels int) {
	type hm struct{ hits, misses float64 }
	byLevel := make([]hm, levels)
	for _, s := range reg.Snapshot() {
		if s.Name != "buffer_level_hits_total" && s.Name != "buffer_level_misses_total" {
			continue
		}
		for _, l := range s.Labels {
			if l.Key != "level" {
				continue
			}
			if lvl, err := strconv.Atoi(l.Value); err == nil && lvl >= 0 && lvl < levels {
				if s.Name == "buffer_level_hits_total" {
					byLevel[lvl].hits += s.Value
				} else {
					byLevel[lvl].misses += s.Value
				}
			}
		}
	}
	fmt.Println("\nper-level buffer hit rates (cumulative, warm-up included):")
	for lvl, c := range byLevel {
		total := c.hits + c.misses
		if total == 0 {
			fmt.Printf("  level %d: no accesses\n", lvl)
			continue
		}
		fmt.Printf("  level %d: %6.2f%% of %.0f accesses\n", lvl, 100*c.hits/total, total)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreequery: %v\n", err)
		os.Exit(1)
	}
}

// policyLabel canonicalizes the -policy flag ("" means LRU).
func policyLabel(policy string) string {
	if policy == "" {
		return "lru"
	}
	return policy
}

// printLatencyPercentiles surfaces the measured-query latency histogram
// as interpolated percentiles. Silent without a registry, or before any
// query was observed.
func printLatencyPercentiles(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, s := range reg.Snapshot() {
		if s.Name != "query_latency_us" || s.Count == 0 {
			continue
		}
		p50, p95, p99 := s.Percentiles()
		fmt.Printf("query latency (µs): p50 %.3g  p95 %.3g  p99 %.3g  (%d queries, log-bucket interpolation)\n",
			p50, p95, p99, s.Count)
		return
	}
}
