package main

import (
	"slices"
	"time"
)

// samples holds one entry per measured operation. It is preallocated, so
// recording an operation allocates nothing.
type samples struct {
	lat []int64   // duration in ns
	end []int64   // completion time in ns since the epoch of the phase
	cls []opClass // what the operation was
}

func newSamples(capacity int) *samples {
	return &samples{
		lat: make([]int64, 0, capacity),
		end: make([]int64, 0, capacity),
		cls: make([]opClass, 0, capacity),
	}
}

func (s *samples) add(class opClass, begin, end time.Duration) {
	s.lat = append(s.lat, int64(end-begin))
	s.end = append(s.end, int64(end))
	s.cls = append(s.cls, class)
}

func (s *samples) len() int   { return len(s.lat) }
func (s *samples) full() bool { return len(s.lat) == cap(s.lat) }
func (s *samples) reset()     { s.lat, s.end, s.cls = s.lat[:0], s.end[:0], s.cls[:0] }

// sorted returns the latencies of the classes keep accepts, ascending.
func sorted(sets []*samples, keep func(opClass) bool) []int64 {
	var out []int64
	for _, s := range sets {
		for i, l := range s.lat {
			if keep(s.cls[i]) {
				out = append(out, l)
			}
		}
	}
	slices.Sort(out)
	return out
}

func every(opClass) bool { return true }

func only(class opClass) func(opClass) bool {
	return func(c opClass) bool { return c == class }
}

// A part is one of the equal pieces a measured phase is cut into: a time
// slice of a storage workload, a round of paper_model's phase A. Every
// timing metric is computed per part and the better quartile over the
// parts is reported. On a shared machine interference comes in spells of
// a second or so and only ever slows a part down, so the better quartile
// repeats more closely from run to run than the pooled figure does, while
// whatever the program itself does periodically (collector cycles,
// checkpoints every 64 commits) is inside every part.
type part struct {
	seconds            float64
	all, window, query []int64 // sorted latencies
}

func newPart(sets []*samples, seconds float64, in func(end int64) bool) part {
	p := part{seconds: seconds}
	for _, s := range sets {
		for i, l := range s.lat {
			if !in(s.end[i]) {
				continue
			}
			p.all = append(p.all, l)
			if s.cls[i] == opWindow {
				p.window = append(p.window, l)
			}
			if s.cls[i].isQuery() {
				p.query = append(p.query, l)
			}
		}
	}
	slices.Sort(p.all)
	slices.Sort(p.window)
	slices.Sort(p.query)
	return p
}

// numSlices is how many time slices a storage workload's phase is cut into.
const numSlices = 10

// timeSlices cuts the phase that ran from 0 to elapsed into equal slices.
// A phase too short to give every slice some operations stays whole.
func timeSlices(sets []*samples, elapsed time.Duration) []part {
	n := 0
	for _, s := range sets {
		n += s.len()
	}
	if n < 100*numSlices {
		return []part{newPart(sets, elapsed.Seconds(), func(int64) bool { return true })}
	}
	width := int64(elapsed) / numSlices
	parts := make([]part, numSlices)
	for k := range parts {
		lo, hi := int64(k)*width, int64(k+1)*width
		parts[k] = newPart(sets, time.Duration(width).Seconds(), func(end int64) bool { return end > lo && end <= hi })
	}
	return parts
}

// betterQuartile returns the quartile of the per-part values that lies
// on the better side: the upper one when higher is better. With fewer
// than five parts that is the best part.
func betterQuartile(parts []part, value func(part) float64, higher bool) float64 {
	vs := make([]float64, len(parts))
	for i, p := range parts {
		vs[i] = value(p)
	}
	slices.Sort(vs)
	i := (len(vs) - 1) / 4
	if higher {
		i = len(vs) - 1 - i
	}
	return vs[i]
}

// timings sets the four gated timing metrics every workload reports, and
// the query tail, which is reported without a bound: with two clients on
// two cores its spread over ten same-commit runs reached 21%.
func timings(res *result, parts []part) {
	var ops, windows, queries int
	fewestAll, fewestQuery := len(parts[0].all), len(parts[0].query)
	for _, p := range parts {
		ops, windows, queries = ops+len(p.all), windows+len(p.window), queries+len(p.query)
		fewestAll, fewestQuery = min(fewestAll, len(p.all)), min(fewestQuery, len(p.query))
	}
	lat := func(pick func(part) []int64, q float64) float64 {
		return betterQuartile(parts, func(p part) float64 { return us(percentile(pick(p), q)) }, false)
	}
	all := func(p part) []int64 { return p.all }
	res.setN("ops_per_s", betterQuartile(parts, func(p part) float64 { return float64(len(p.all)) / p.seconds }, true), ops)
	res.setN("op_p50_us", lat(all, 0.5), ops)
	q95 := supported(fewestAll, 0.95)
	res.setN("op_p95_us", lat(all, q95), ops)
	res.setN("window_p50_us", lat(func(p part) []int64 { return p.window }, 0.5), windows)
	q99 := supported(fewestQuery, 0.99)
	res.report("query_p99_us", "us", lat(func(p part) []int64 { return p.query }, q99), queries)
	if q95 != 0.95 || q99 != 0.99 {
		res.notef("too few samples per part for ten to lie beyond the percentile: op_p95_us is p%.0f, query_p99_us is p%.0f", 100*q95, 100*q99)
	}
}
