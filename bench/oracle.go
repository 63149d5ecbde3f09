package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// knnK is the k of every nearest-neighbour query.
const knnK = 10

// oracle holds seeded check queries and their answers computed from the
// item slice by brute force, with no index of any kind: ID sets for point
// and window queries, the ascending distance list for kNN (IDs of
// equidistant items may legitimately differ).
type oracle struct {
	points    []geom.Point
	pointIDs  [][]int64
	windows   []geom.Rect
	windowIDs [][]int64
	knn       []geom.Point
	knnDists  [][]float64
}

// Stream IDs of the PCG streams derived from the seed. Clients use
// streamClient+i.
const (
	streamOracle  = 1
	streamCrash   = 2
	streamPhaseA  = 3
	streamDurable = 4
	streamClient  = 16
)

func uniformPoint(rng *rand.Rand) geom.Point {
	return geom.Point{X: rng.Float64(), Y: rng.Float64()}
}

// uniformWindow places a side x side window uniformly so that it fits in
// the unit square, the query model of the paper's Section 3.1.
func uniformWindow(rng *rand.Rand, side float64) geom.Rect {
	x, y := rng.Float64()*(1-side), rng.Float64()*(1-side)
	return geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
}

// distSq is the squared Euclidean distance from p to r, zero inside it.
func distSq(p geom.Point, r geom.Rect) float64 {
	dx := math.Max(math.Max(r.MinX-p.X, 0), p.X-r.MaxX)
	dy := math.Max(math.Max(r.MinY-p.Y, 0), p.Y-r.MaxY)
	return dx*dx + dy*dy
}

// newOracle answers n check queries of each class in classes over items:
// every item is tested against every query. Two goroutines take half of
// the items each, with the queries in the inner loop so that the item
// slice (48 MB) is read once and not once per query.
func newOracle(items []rtree.Item, seed uint64, n int, side float64, classes [numClasses]bool) *oracle {
	rng := rand.New(rand.NewPCG(seed, streamOracle))
	o := &oracle{}
	if classes[opPoint] {
		o.points = make([]geom.Point, n)
		for i := range o.points {
			o.points[i] = uniformPoint(rng)
		}
	}
	if classes[opWindow] {
		o.windows = make([]geom.Rect, n)
		for i := range o.windows {
			o.windows[i] = uniformWindow(rng, side)
		}
	}
	if classes[opKNN] {
		o.knn = make([]geom.Point, n)
		for i := range o.knn {
			o.knn[i] = uniformPoint(rng)
		}
	}
	var halves [2]*oracle
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			halves[h] = o.scan(items[h*len(items)/2 : (h+1)*len(items)/2])
		}(h)
	}
	wg.Wait()
	a, b := halves[0], halves[1]
	o.pointIDs, o.windowIDs, o.knnDists = a.pointIDs, a.windowIDs, a.knnDists
	for q := range o.pointIDs {
		o.pointIDs[q] = append(o.pointIDs[q], b.pointIDs[q]...)
		slices.Sort(o.pointIDs[q])
	}
	for q := range o.windowIDs {
		o.windowIDs[q] = append(o.windowIDs[q], b.windowIDs[q]...)
		slices.Sort(o.windowIDs[q])
	}
	for q := range o.knnDists {
		d := append(o.knnDists[q], b.knnDists[q]...)
		slices.Sort(d)
		d = d[:min(len(d), knnK)]
		for i := range d {
			d[i] = math.Sqrt(d[i])
		}
		o.knnDists[q] = d
	}
	return o
}

// scan answers o's queries over items alone: IDs in item order, and the
// knnK smallest squared distances ascending.
func (o *oracle) scan(items []rtree.Item) *oracle {
	part := &oracle{
		pointIDs:  make([][]int64, len(o.points)),
		windowIDs: make([][]int64, len(o.windows)),
		knnDists:  make([][]float64, len(o.knn)),
	}
	for i := range items {
		r, id := items[i].Rect, items[i].ID
		for q, p := range o.points {
			if r.Intersects(geom.PointRect(p)) {
				part.pointIDs[q] = append(part.pointIDs[q], id)
			}
		}
		for q, w := range o.windows {
			if r.Intersects(w) {
				part.windowIDs[q] = append(part.windowIDs[q], id)
			}
		}
		for q, p := range o.knn {
			best := part.knnDists[q]
			d := distSq(p, r)
			if len(best) == knnK && d >= best[knnK-1] {
				continue
			}
			at, _ := slices.BinarySearch(best, d)
			best = slices.Insert(best, at, d)
			part.knnDists[q] = best[:min(len(best), knnK)]
		}
	}
	return part
}

func sortedIDs(items []rtree.Item) []int64 {
	ids := make([]int64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	return ids
}

// querier is the read surface shared by the paged and the in-memory
// tree, so one replay checks either.
type querier interface {
	point(p geom.Point) ([]rtree.Item, error)
	window(q geom.Rect) ([]rtree.Item, error)
	nearest(p geom.Point, k int) ([]rtree.Neighbor, error)
}

// replay runs every check query through t and counts the answers that
// differ from the oracle's, errors included.
func (o *oracle) replay(t querier) (attempted, failed int) {
	for i, p := range o.points {
		got, err := t.point(p)
		if err != nil || !slices.Equal(sortedIDs(got), o.pointIDs[i]) {
			failed++
		}
	}
	for i, q := range o.windows {
		got, err := t.window(q)
		if err != nil || !slices.Equal(sortedIDs(got), o.windowIDs[i]) {
			failed++
		}
	}
	for i, p := range o.knn {
		got, err := t.nearest(p, knnK)
		if err != nil || !sameDists(got, o.knnDists[i]) {
			failed++
		}
	}
	return len(o.points) + len(o.windows) + len(o.knn), failed
}

func sameDists(got []rtree.Neighbor, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, n := range got {
		if math.Abs(n.Dist-want[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// corrupt falsifies one answer of each class present; only the smoke
// test calls it, to show that a wrong answer fails the run.
func (o *oracle) corrupt() {
	if len(o.pointIDs) > 0 {
		o.pointIDs[0] = append(o.pointIDs[0], -1)
	}
	if len(o.windowIDs) > 0 {
		o.windowIDs[0] = append(o.windowIDs[0], -1)
	}
	if len(o.knnDists) > 0 {
		o.knnDists[0] = nil
	}
}
