// Command rtreebench reproduces the paper's tables and figures.
//
// Usage:
//
//	rtreebench [-quick] [-seed N] [-batches N] [-batchsize N] [-csv]
//	           [-parallel N] [ids...]
//
// With no ids it runs every registered experiment in order. Each
// experiment prints its tables (aligned text, or CSV with -csv) followed
// by notes relating the output to the paper's claims. Experiments run
// over a worker pool with a shared dataset/tree build cache; output is
// byte-identical whatever the worker count.
//
//	rtreebench table1            # model-vs-simulation validation
//	rtreebench fig6 fig9         # the buffer-matters headline figures
//	rtreebench -quick            # reduced sizes, ~seconds
//	rtreebench -parallel 1       # serial reference run
//	rtreebench -metrics run.prom     # engine metrics dump (.json/.prom/.txt)
//	rtreebench -debug-addr :6060     # live /metrics + /debug/pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rtreebuf/internal/experiments"
	"rtreebuf/internal/obs"
)

// writeMetrics dumps the registry to path, choosing the format by
// extension: .json → JSON, .prom → Prometheus text exposition, anything
// else → aligned text table.
func writeMetrics(path string, reg *obs.Registry) error {
	var b strings.Builder
	var err error
	switch filepath.Ext(path) {
	case ".json":
		err = obs.WriteJSON(&b, reg)
	case ".prom":
		err = obs.WritePrometheus(&b, reg)
	default:
		err = obs.WriteText(&b, reg)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeCSVs stores every table of a report as a CSV file in dir,
// creating it if needed.
func writeCSVs(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
		if err := os.WriteFile(path, []byte(rep.Tables[i].CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "shrink data sizes and simulation lengths")
	seed := flag.Uint64("seed", 0, "generator seed (0 = fixed default)")
	batches := flag.Int("batches", 0, "simulation batches (0 = default 20; paper uses 20)")
	batchSize := flag.Int("batchsize", 0, "queries per batch (0 = default 50000; paper uses 1000000)")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	outDir := flag.String("outdir", "", "also write each table as <outdir>/<experiment>_<n>.csv")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", 0, "experiment worker count (0 = NumCPU, 1 = serial)")
	policy := flag.String("policy", "", "paged-tree replacement policy for system experiments (lru, clock, 2q, clockpro; empty = lru)")
	shards := flag.Int("shards", 1, "paged-tree pool shards for system experiments (>1 = lock-striped pool)")
	monitorFlag := flag.Bool("monitor", false, "enable the online model-residual monitor in paged-system experiments (adds a residual table to ext-system)")
	metricsPath := flag.String("metrics", "", "write an engine metrics dump to this path (.json/.prom/anything-else=text)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (keeps the process alive after the run until interrupted)")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-8s %s\n", id, title)
		}
		return
	}

	cfg := experiments.Config{
		Quick:        *quick,
		Seed:         *seed,
		SimBatches:   *batches,
		SimBatchSize: *batchSize,
		Policy:       *policy,
		Shards:       *shards,
		Monitor:      *monitorFlag,
	}
	if *metricsPath != "" || *debugAddr != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, cfg.Metrics, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtreebench: %v\n", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Printf("debug: serving /metrics and /debug/pprof on http://%s\n", ds.Addr)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	start := time.Now()
	reports, timings, err := experiments.RunAllTimed(ids, cfg, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreebench: %v\n", err)
		os.Exit(1)
	}
	total := time.Since(start)

	for i, rep := range reports {
		if *csv {
			for j := range rep.Tables {
				fmt.Printf("# %s\n%s\n", rep.Tables[j].Name, rep.Tables[j].CSV())
			}
		} else {
			fmt.Print(rep.Text())
		}
		if *outDir != "" {
			if err := writeCSVs(*outDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "rtreebench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", rep.ID, time.Duration(timings[i].Seconds*float64(time.Second)).Round(time.Millisecond))
	}
	fmt.Printf("[all %d experiments in %v]\n", len(reports), total.Round(time.Millisecond))

	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, cfg.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "rtreebench: writing %s: %v\n", *metricsPath, err)
			os.Exit(1)
		}
	}
	if *debugAddr != "" {
		fmt.Println("debug: serving until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}
