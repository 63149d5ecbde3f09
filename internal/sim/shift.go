package sim

import (
	"fmt"
	"math/rand/v2"

	"rtreebuf/internal/geom"
)

// This file holds the nonstationary workloads the drift monitor is
// validated against: a hotspot point workload whose queries concentrate
// in a sub-rectangle, and a Shift wrapper that switches from one
// workload to another after a fixed number of draws. A workload shift
// changes the access skew mid-run — exactly the event the monitor's
// CUSUM detector exists to catch — while the analytic prediction stays
// frozen at the pre-shift workload.

// HotspotPoints is a point-query workload whose query points are uniform
// over the Hot sub-rectangle instead of the whole unit square. Like
// UniformPoints it is a point workload, so the hit rectangle is the MBR
// itself — which makes it shift-compatible with UniformPoints: the
// geometry prepared for one is valid for the other.
type HotspotPoints struct {
	Hot geom.Rect
}

// NewHotspotPoints validates the hotspot rectangle.
func NewHotspotPoints(hot geom.Rect) (HotspotPoints, error) {
	if !hot.Valid() || hot.Area() <= 0 {
		return HotspotPoints{}, fmt.Errorf("sim: hotspot rectangle %+v is empty", hot)
	}
	return HotspotPoints{Hot: hot}, nil
}

// HitRect implements Workload.
func (HotspotPoints) HitRect(mbr geom.Rect) geom.Rect { return mbr }

// Next implements Workload.
func (h HotspotPoints) Next(rng *rand.Rand) geom.Point {
	return geom.Point{
		X: h.Hot.MinX + rng.Float64()*h.Hot.Width(),
		Y: h.Hot.MinY + rng.Float64()*h.Hot.Height(),
	}
}

// Describe implements Workload.
func (h HotspotPoints) Describe() string {
	return fmt.Sprintf("hotspot point queries over [%g,%g]x[%g,%g]",
		h.Hot.MinX, h.Hot.MaxX, h.Hot.MinY, h.Hot.MaxY)
}

// Shift draws from Before for the first At draws (warm-up included),
// then from After forever. Both phases must induce the same hit
// rectangles — NewShift probe-checks that — because the geometry is
// prepared once, before the run.
//
// Shift is stateful (it counts draws): use a fresh value per run, and
// never share one between concurrent runs.
type Shift struct {
	Before, After Workload
	At            int

	drawn int
}

// NewShift validates the switch point and probe-checks that both phases
// agree on hit-rectangle geometry.
func NewShift(before, after Workload, at int) (*Shift, error) {
	if at < 1 {
		return nil, fmt.Errorf("sim: shift point %d < 1", at)
	}
	const eps = 1e-12
	probes := []geom.Rect{
		geom.UnitSquare,
		{MinX: 0.1, MinY: 0.2, MaxX: 0.4, MaxY: 0.9},
		{MinX: 0.73, MinY: 0.05, MaxX: 0.74, MaxY: 0.06},
	}
	for _, mbr := range probes {
		a, b := before.HitRect(mbr), after.HitRect(mbr)
		if !geom.ApproxEqual(a.MinX, b.MinX, eps) || !geom.ApproxEqual(a.MinY, b.MinY, eps) ||
			!geom.ApproxEqual(a.MaxX, b.MaxX, eps) || !geom.ApproxEqual(a.MaxY, b.MaxY, eps) {
			return nil, fmt.Errorf("sim: shift phases induce different hit rectangles (%+v vs %+v for %+v)",
				a, b, mbr)
		}
	}
	return &Shift{Before: before, After: after, At: at}, nil
}

// HitRect implements Workload. The phases agree by construction, so the
// pre-shift geometry stays valid.
func (s *Shift) HitRect(mbr geom.Rect) geom.Rect { return s.Before.HitRect(mbr) }

// Next implements Workload: Before for the first At draws, After
// afterwards.
func (s *Shift) Next(rng *rand.Rand) geom.Point {
	s.drawn++
	if s.drawn <= s.At {
		return s.Before.Next(rng)
	}
	return s.After.Next(rng)
}

// Describe implements Workload.
func (s *Shift) Describe() string {
	return fmt.Sprintf("%s shifting to %s after %d queries",
		s.Before.Describe(), s.After.Describe(), s.At)
}
