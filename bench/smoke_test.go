package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rtreebuf/internal/storage"
)

// smokeConfig runs a workload at 1/100 of its size on MemoryManager
// devices, with no time budget: exactly the fixed prefix of operations.
func smokeConfig(t *testing.T, seed uint64, trace bool) config {
	return config{seed: seed, trace: trace, dir: t.TempDir(), scale: 100, memory: true}
}

type outputLine struct {
	Correct   *bool                 `json:"correct"`
	Attempted *int                  `json:"attempted"`
	Failed    *int                  `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func lastLine(t *testing.T, out string) outputLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("last line has keys %v, want %v", keys, want)
	}
	var l outputLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatal(err)
	}
	return l
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	slices.Sort(out)
	return out
}

// Every workload, traced and not, must exit 0 and print exactly the
// metrics declared for that mode, with the declared units.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, 5, trace)
			cfg.workload = w.name
			var stdout, stderr bytes.Buffer
			if code := runConfig(cfg, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			l := lastLine(t, stdout.String())
			if !*l.Correct || *l.Failed != 0 || *l.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, *l.Correct, *l.Failed, *l.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			got := make([]string, 0, len(l.Metrics))
			for name, m := range l.Metrics {
				got = append(got, name)
				if i := slices.IndexFunc(defs, func(d metricDef) bool { return d.name == name }); i >= 0 && defs[i].unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, name, m.Unit, defs[i].unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
				}
			}
			slices.Sort(got)
			if want := names(defs); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: printed metrics %v, declared %v", w.name, trace, got, want)
			}
			if trace {
				if _, err := os.Stat(cfg.dir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// BENCHMARK.json must declare exactly what the harness prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonDef `json:"end_to_end"`
		PerLayer []jsonDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Command, []string{"go", "run", "./bench"}) || !slices.Equal(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, defined %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, declared []jsonDef, defined []metricDef, bounded bool) {
		if len(declared) != len(defined) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(declared), len(defined))
		}
		for i, d := range defined {
			j := declared[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, j, d)
			}
			if bounded != (j.Bound != nil) || bounded && *j.Bound != d.bound {
				t.Errorf("%s %s: bound declared %v, defined %v", kind, d.name, j.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if !slices.ContainsFunc(endToEnd, func(d metricDef) bool {
		return d.name == "setup_s" && d.unit == "s" && d.better == "lower"
	}) {
		t.Error("setup_s is not among the end-to-end metrics")
	}
}

// With one client the counts are exact: the same seed gives the same
// bits, another seed other ones.
func TestCountsRepeatExactly(t *testing.T) {
	counts := func(name string, seed uint64) map[string]float64 {
		w, _ := findWorkload(name)
		res, err := w.run(smokeConfig(t, seed, false), w.spec)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range []string{"disk_reads_per_query", "fsyncs_per_commit", "bytes_written_per_commit"} {
			if v, ok := res.values[m]; ok {
				out[m] = v
			}
		}
		return out
	}
	for _, name := range []string{"read_hot", "read_cold", "write_wal", "paper_model"} {
		a, b, other := counts(name, 5), counts(name, 5), counts(name, 6)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 5 differ: %v vs %v", name, a, b)
		}
		// read_hot reads each page once whatever the seed.
		if name != "read_hot" && reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 5 and 6 give the same counts %v", name, a)
		}
	}
	if got := counts("write_wal", 5); len(got) != 2 {
		t.Errorf("write_wal reports %v, want reads per query and bytes per commit", got)
	}

	// The fsync count needs a FileManager, which only the traced run of
	// write_wal has; with no time budget its phases are fixed work too.
	fsyncs := func(seed uint64) [2]float64 {
		w, _ := findWorkload("write_wal")
		cfg := smokeConfig(t, seed, true)
		cfg.memory = false
		res, err := w.run(cfg, w.spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("traced write_wal on files: %d failed: %v", res.failed, res.notes)
		}
		return [2]float64{res.values["storage.disk.fsyncs_per_commit"], res.values["storage.disk.bytes_written_per_commit"]}
	}
	a, b, other := fsyncs(5), fsyncs(5), fsyncs(6)
	if a != b || a == other || a[0] < 2 {
		t.Errorf("fsyncs and bytes per commit: seed 5 gives %v and %v, seed 6 %v", a, b, other)
	}
}

// A wrong oracle answer must fail the run with a non-zero exit.
func TestWrongOracleAnswerFailsTheRun(t *testing.T) {
	for _, name := range []string{"read_cold", "write_wal", "paper_model"} {
		cfg := smokeConfig(t, 5, false)
		cfg.workload, cfg.corruptOracle = name, true
		var stdout, stderr bytes.Buffer
		if code := runConfig(cfg, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0 with a falsified oracle", name)
		}
		if l := lastLine(t, stdout.String()); *l.Correct || *l.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with a falsified oracle", name, *l.Correct, *l.Failed)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// The timing wrapper must count what the device counts.
func TestTimedDMCountsMatchDevice(t *testing.T) {
	mem, err := storage.NewMemoryManager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(64)
	tr.enabled = true
	d := newTimedDM(mem, tr, diskSpans)
	page := make([]byte, pageSize)
	for p := 0; p < 5; p++ {
		if err := d.WritePage(p, page); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 3; p++ {
		if err := d.ReadPage(p, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil { // MemoryManager has none: forwarded as a no-op
		t.Fatal(err)
	}
	st := mem.Stats()
	if d.count[ioRead] != st.Reads || d.count[ioWrite] != st.Writes {
		t.Errorf("wrapper counted %d reads %d writes, device %d and %d", d.count[ioRead], d.count[ioWrite], st.Reads, st.Writes)
	}
	if len(tr.spans) != 8 || d.spans[ioRead] != 3 || d.meanNS(ioRead) <= 0 {
		t.Errorf("%d spans, %d timed reads, mean %v ns", len(tr.spans), d.spans[ioRead], d.meanNS(ioRead))
	}
}

// Unflushed pages must vanish at the crash, flushed ones must not.
func TestVolatileDMDropsUnflushedPages(t *testing.T) {
	mem, err := storage.NewMemoryManager(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	crash := &crashPoint{}
	v := newVolatileDM(mem, crash)
	page := bytes.Repeat([]byte{7}, pageSize)
	if err := v.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if mem.NumPages() != 0 || v.NumPages() != 1 {
		t.Fatalf("before a flush the medium has %d pages, the cache shows %d", mem.NumPages(), v.NumPages())
	}
	got := make([]byte, pageSize)
	if err := v.ReadPage(0, got); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("read-your-write: %v", err)
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.WritePage(1, page); err != nil {
		t.Fatal(err)
	}
	crash.armed = true // remaining 0: the next write is the crash
	if err := v.WritePage(2, page); !errors.Is(err, errCrashed) {
		t.Fatalf("write at the crash point: %v", err)
	}
	if err := v.Sync(); !errors.Is(err, errCrashed) {
		t.Fatalf("sync after the crash: %v", err)
	}
	if mem.NumPages() != 1 {
		t.Errorf("the medium has %d pages after the crash, want the 1 that was flushed", mem.NumPages())
	}
}

// An acknowledged insert the recovered tree does not hold must be counted.
func TestDurabilityCheckCountsLoss(t *testing.T) {
	w, _ := findWorkload("write_wal")
	cfg := smokeConfig(t, 5, true)
	sp := w.spec.scaled(cfg.scale)
	e, _, err := setUp(cfg, sp, newTracer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	wal, _, err := newDevice(cfg, e.dir, "crash.wal", pageSize+storage.WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runUntilCrash(cfg, sp, e.spare, wal)
	if err != nil {
		t.Fatal(err)
	}
	if run.acked == 0 || run.inFlight == nil {
		t.Fatalf("crash after %d acknowledged operations, in flight %v", run.acked, run.inFlight)
	}
	ghost := run.live[0]
	ghost.ID = 1 << 40 // acknowledged according to the harness, never inserted
	run.live = append(run.live, ghost)
	lost, _, err := lostAfterRecovery(sp, e, wal, "", run)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 1 {
		t.Errorf("%d acknowledged operations lost, want exactly the ghost", lost)
	}
}
