package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// A span is one timed interval of the traced run: an operation (parent
// -1) or a device call made while it ran. The traced run has one client,
// so the open span at the time of a device call is its only possible
// parent and a plain stack finds it.
type span struct {
	name   uint8 // index into spanNames
	parent int32 // index into tracer.spans, -1 for an operation
	op     int32 // operation number shared by a root span and its descendants
	start  int64 // ns since tracer.base
	end    int64
}

// Span names. Operation spans are named after their op class; the rest
// name the decorated boundary, resilient.read enclosing disk.read.
const (
	spanResilientRead = uint8(numClasses) + iota
	spanDiskRead
	spanDiskWrite
	spanDiskMeta
	spanDiskSync
	spanWALWrite
	spanWALMeta
	spanWALSync
	spanCoreSweep
	spanSimRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	opPoint: "op.point", opWindow: "op.window", opKNN: "op.knn", opInsert: "op.insert", opDelete: "op.delete",
	spanResilientRead: "storage.resilient.read",
	spanDiskRead:      "storage.disk.read",
	spanDiskWrite:     "storage.disk.write",
	spanDiskMeta:      "storage.disk.meta",
	spanDiskSync:      "storage.disk.sync",
	spanWALWrite:      "storage.wal.write",
	spanWALMeta:       "storage.wal.meta",
	spanWALSync:       "storage.wal.sync",
	spanCoreSweep:     "core.sweep",
	spanSimRun:        "sim.run",
}

// tracer records spans into a preallocated slice; nothing is written
// out until the run is over. A nil tracer and a disabled one record
// nothing, which is how the traced run measures its own overhead.
type tracer struct {
	base    time.Time
	spans   []span   // preallocated; len grows to cap and stops
	open    [8]int32 // stack of open span indexes
	depth   int
	op      int32
	enabled bool
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) full() bool { return len(t.spans) == cap(t.spans) }

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(name uint8) int32 {
	if t == nil || !t.enabled {
		return -1
	}
	if t.full() || t.depth == len(t.open) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if t.depth > 0 {
		parent = t.open[t.depth-1]
	} else {
		t.op++
	}
	i := int32(len(t.spans))
	t.spans = t.spans[:i+1]
	t.spans[i] = span{name: name, parent: parent, op: t.op, start: int64(time.Since(t.base))} //lint:allow determcheck a timing wrapper reads the clock by design; spans never feed back into what is stored
	t.open[t.depth] = i
	t.depth++
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base)) //lint:allow determcheck a timing wrapper reads the clock by design; spans never feed back into what is stored
	t.depth--
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() (total, self [numSpanNames]int64) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - children[i]
	}
	return total, self
}

// traceFileSpans bounds the file: a quarter-length read_cold run records
// about a million spans, and the first hundred thousand show the same
// shapes as the rest. The totals in the file cover every span recorded.
const traceFileSpans = 100_000

// writeFile writes the spans as JSON: names once, then one
// [name, parent, op, start_ns, end_ns] row per span.
func (t *tracer) writeFile(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	total, self := t.selfTimes()
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans_recorded\":%d,\"spans_dropped\":%d,\n", workload, seed, len(t.spans), t.dropped)
	fmt.Fprintf(w, "\"names\":[")
	for i, n := range spanNames {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q", n)
	}
	byName := func(key string, ns [numSpanNames]int64) {
		fmt.Fprintf(w, "%q:{", key)
		sep := ""
		for i, n := range spanNames {
			if total[i] != 0 {
				fmt.Fprintf(w, "%s%q:%d", sep, n, ns[i])
				sep = ","
			}
		}
		fmt.Fprint(w, "},\n")
	}
	fmt.Fprint(w, "],\n")
	byName("total_ns", total)
	byName("self_ns", self)
	fmt.Fprintf(w, "\"columns\":[\"name\",\"parent\",\"op\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	n := min(len(t.spans), traceFileSpans)
	for i, s := range t.spans[:n] {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.name, s.parent, s.op, s.start, s.end)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush failure is the one worth reporting
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
