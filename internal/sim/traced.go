package sim

import (
	"fmt"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// RunTraced simulates the workload by executing real traced R-tree
// searches (rtree.TraceWindow) against the buffer, instead of testing the
// flattened MBR list: the tree is one more access source under the
// driver Run uses, so Policy, PinLevels, Metrics and Monitor mean here
// what they mean there. The set of nodes touched per query is identical to
// the MBR-list simulation by construction (a node is visited iff its MBR
// intersects the query); what can differ is the *order* pages hit the
// LRU within one query — DFS for a real search, level order for the
// paper's simulator. Running both orders shows the steady-state averages
// agree, which is why the paper's simulator may ignore within-query
// order (the ablation DESIGN.md calls out).
//
// Only window-style workloads are supported: the query rectangle is
// reconstructed from the workload's test point, which the paper's three
// models all permit.
func RunTraced(t *rtree.Tree, w Workload, order rtree.TraceOrder, cfg Config) (Result, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return Result{}, err
	}
	queryRect, err := queryFromTestPoint(w)
	if err != nil {
		return Result{}, err
	}
	t.AssignPageIDs()
	rng := replicaStream(cfg.Seed, 0)
	next := func(dst []int32) []int32 {
		t.TraceWindow(queryRect(w.Next(rng)), order, false, func(v rtree.NodeVisit) {
			dst = append(dst, int32(v.Page))
		})
		return dst
	}
	return runSerial(next, t.PageLevels(), cfg)
}

// queryFromTestPoint inverts a workload's test-point convention back into
// the actual query rectangle.
func queryFromTestPoint(w Workload) (func(geom.Point) geom.Rect, error) {
	switch wl := w.(type) {
	case UniformPoints:
		return func(p geom.Point) geom.Rect { return geom.PointRect(p) }, nil
	case UniformRegions:
		return func(p geom.Point) geom.Rect {
			return geom.Rect{MinX: p.X - wl.QX, MinY: p.Y - wl.QY, MaxX: p.X, MaxY: p.Y}
		}, nil
	case DataDriven:
		return func(p geom.Point) geom.Rect {
			return geom.RectAround(p, wl.QX, wl.QY)
		}, nil
	case WeightedCenters:
		return func(p geom.Point) geom.Rect {
			return geom.RectAround(p, wl.QX, wl.QY)
		}, nil
	default:
		return nil, fmt.Errorf("sim: traced simulation does not support workload %T", w)
	}
}
