// Command bench is the repository's benchmark. It drives the real paged
// stack (PagedTree -> PagePool -> ResilientManager -> FileManager / WAL)
// and the paper's model and simulator from the outside: every input is
// generated from -seed, every layer is measured by timing calls into its
// public functions, and every answer is checked against a brute-force
// oracle. README.md in this directory says what each workload and metric
// is for; ../BENCHMARK.json is the contract a driver runs it by.
//
//	go run ./bench --workload read_cold --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// config is one invocation. The unexported switches below the flags are
// set only by smoke_test.go.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string

	scale         int  // divisor of every size and op count; 1 outside tests
	memory        bool // MemoryManager devices instead of files
	corruptOracle bool // falsify one oracle answer, to show a miss fails the run
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := config{scale: 1}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the data set and of every op stream")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 = the separate traced run that yields the per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", "bench/out", "directory for the page and log files (point it at a tmpfs to take the disk out of the latencies)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "bench: usage: --workload NAME --seed N --seconds S --trace 0|1 [--dir D]")
		return 2
	}
	cfg.trace = *trace == 1
	return runConfig(cfg, stdout, stderr)
}

func runConfig(cfg config, stdout, stderr io.Writer) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		res, err := w.run(cfg, w.spec)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		res.validate(cfg)
		res.print(stdout, cfg, w)
		if res.failed > 0 {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations and checks failed\n", name, res.failed, res.attempted)
			code = 1
		}
	}
	return code
}

// metricDef declares one metric. BENCHMARK.json repeats these tables;
// smoke_test.go fails when the two disagree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // share of the parent's median; end-to-end metrics only
}

// endToEnd are the gated metrics. A driver compares each on every
// workload, so each has a meaning, and is never zero, on all five; the
// per-class numbers that exist on some workloads only are printed as
// "reported" rows (see result.extra) and kept out of this table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"window_p50_us", "us", "lower", 0.25},
	{"disk_reads_per_query", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
}

// perLayer are the numbers of the traced run, layer = module name. A
// value of 0 on a workload means the layer is not exercised there.
var perLayer = []metricDef{
	{name: "storage.disk.read_count", unit: "count", better: "lower"},
	{name: "storage.disk.write_count", unit: "count", better: "lower"},
	{name: "storage.disk.meta_count", unit: "count", better: "lower"},
	{name: "storage.disk.sync_count", unit: "count", better: "lower"},
	{name: "storage.disk.read_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.write_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.meta_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.sync_ns", unit: "ns", better: "lower"},
	{name: "storage.disk.busy_share", unit: "%", better: "lower"},
	{name: "storage.disk.reads_per_query_steady", unit: "count", better: "lower"},
	{name: "storage.disk.fsyncs_per_commit", unit: "count", better: "lower"},
	{name: "storage.disk.bytes_written_per_commit", unit: "B", better: "lower"},
	{name: "storage.resilient.self_ns", unit: "ns", better: "lower"},
	{name: "storage.resilient.retries", unit: "count", better: "lower"},
	{name: "storage.wal.append_count", unit: "count", better: "lower"},
	{name: "storage.wal.meta_count", unit: "count", better: "lower"},
	{name: "storage.wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "storage.wal.checkpoints", unit: "count", better: "lower"},
	{name: "storage.wal.busy_share", unit: "%", better: "lower"},
	{name: "storage.wal.acked_lost", unit: "count", better: "lower"},
	{name: "storage.tree.self_share", unit: "%", better: "lower"},
	{name: "storage.update.self_share", unit: "%", better: "lower"},
	{name: "storage.tree.nodes_per_query.point", unit: "count", better: "lower"},
	{name: "storage.tree.nodes_per_query.window", unit: "count", better: "lower"},
	{name: "storage.tree.nodes_per_query.knn", unit: "count", better: "lower"},
	{name: "storage.tree.results_per_query", unit: "count", better: "higher"},
	{name: "storage.tree.save_ns_per_page", unit: "ns", better: "lower"},
	{name: "storage.tree.open_ms", unit: "ms", better: "lower"},
	{name: "storage.codec.decode_ns", unit: "ns", better: "lower"},
	{name: "storage.codec.verify_ns", unit: "ns", better: "lower"},
	{name: "storage.codec.encode_ns", unit: "ns", better: "lower"},
	{name: "buffer.get_hit_ns", unit: "ns", better: "lower"},
	{name: "buffer.get_miss_ns", unit: "ns", better: "lower"},
	{name: "buffer.sharded_get_hit_ns", unit: "ns", better: "lower"},
	{name: "buffer.sharded_get_miss_ns", unit: "ns", better: "lower"},
	{name: "buffer.put_flush_ns", unit: "ns", better: "lower"},
	{name: "buffer.accesses_per_op", unit: "count", better: "lower"},
	{name: "buffer.hit_ratio", unit: "%", better: "higher"},
	{name: "buffer.evictions_per_op", unit: "count", better: "lower"},
	{name: "buffer.write_backs_per_commit", unit: "count", better: "lower"},
	{name: "rtree.insert_ns", unit: "ns", better: "lower"},
	{name: "rtree.search_ns", unit: "ns", better: "lower"},
	{name: "rtree.delete_ns", unit: "ns", better: "lower"},
	{name: "pack.load_ns_per_item", unit: "ns", better: "lower"},
	{name: "datagen.ns_per_item", unit: "ns", better: "lower"},
	{name: "core.predictor_build_ms", unit: "ms", better: "lower"},
	{name: "core.sweep_ms", unit: "ms", better: "lower"},
	{name: "core.model_vs_sim_err_pct", unit: "%", better: "lower"},
	{name: "core.model_vs_system_err_pct.point", unit: "%", better: "lower"},
	{name: "core.model_vs_system_err_pct.window", unit: "%", better: "lower"},
	{name: "sim.prepare_ms", unit: "ms", better: "lower"},
	{name: "sim.query_ns", unit: "ns", better: "lower"},
	{name: "obs.flight_overhead_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// result is what one workload run reports.
type result struct {
	attempted int // timed operations plus correctness checks
	failed    int // errors plus oracle mismatches

	values map[string]float64 // by metric name
	counts map[string]int     // sample count behind a value, where one exists
	extra  []metricDef        // reported-only metrics (name and unit), in print order
	notes  []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// report adds a metric that is printed but not gated.
func (r *result) report(name, unit string, v float64, n int) {
	r.extra = append(r.extra, metricDef{name: name, unit: unit})
	r.setN(name, v, n)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// declared returns the metrics a run of this mode must print.
func declared(cfg config) []metricDef {
	if cfg.trace {
		return perLayer
	}
	return endToEnd
}

// validate fails the run when a declared metric is not a number, or when
// an end-to-end metric is not positive: a driver divides by these.
func (r *result) validate(cfg config) {
	for _, d := range declared(cfg) {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || !cfg.trace && v <= 0 {
			r.failed++
			r.notef("FAIL: %s = %v", d.name, v)
			r.values[d.name] = 0
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table and then, as the last line, the
// one JSON object a driver reads.
func (r *result) print(w io.Writer, cfg config, wl workload) {
	defs := declared(cfg)
	kind := "end-to-end (tracing off)"
	if cfg.trace {
		kind = "per-layer (traced run, one client)"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g: %s\n", wl.name, cfg.seed, cfg.seconds, kind)
	fmt.Fprintf(w, "   why: %s\n", wl.why)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	row := func(name, unit, better, bound string) {
		n := ""
		if c := r.counts[name]; c > 0 {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Fprintf(w, "   %-40s %16.4f %-6s %-12s %-7s %s\n", name, r.values[name], unit, n, better, bound)
	}
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		bound := ""
		if !cfg.trace {
			bound = fmt.Sprintf("bound %.0f%%", 100*d.bound)
		}
		row(d.name, d.unit, d.better, bound)
		out[d.name] = jsonMetric{Value: r.values[d.name], Unit: d.unit}
	}
	for _, d := range r.extra {
		row(d.name, d.unit, "", "reported")
	}
	fmt.Fprintf(w, "   failed_ops %d of %d attempted\n", r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		panic(err) // validate has replaced every value JSON cannot carry
	}
	fmt.Fprintf(w, "%s\n", line)
}
