package datagen

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
)

func TestSyntheticPoints(t *testing.T) {
	pts := SyntheticPoints(10000, 1)
	if len(pts) != 10000 {
		t.Fatalf("len = %d", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point %v outside unit square", p)
		}
		sx += p.X
		sy += p.Y
	}
	// Uniformity sanity: means near 0.5.
	if math.Abs(sx/10000-0.5) > 0.02 || math.Abs(sy/10000-0.5) > 0.02 {
		t.Errorf("means %.3f, %.3f far from 0.5", sx/10000, sy/10000)
	}
}

func TestSyntheticPointsDeterministic(t *testing.T) {
	a := SyntheticPoints(100, 7)
	b := SyntheticPoints(100, 7)
	c := SyntheticPoints(100, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestSyntheticRegions(t *testing.T) {
	rects := SyntheticRegions(10000, 2)
	if len(rects) != 10000 {
		t.Fatalf("len = %d", len(rects))
	}
	var area float64
	for _, r := range rects {
		if !geom.UnitSquare.ContainsRect(r) {
			t.Fatalf("rect %v escapes the unit square", r)
		}
		if math.Abs(r.Width()-r.Height()) > 1e-12 {
			t.Fatalf("rect %v is not a square", r)
		}
		if r.Width() > RegionRho {
			t.Fatalf("side %g exceeds rho %g", r.Width(), RegionRho)
		}
		area += r.Area()
	}
	// The paper says 10,000 rectangles sum to "roughly" 0.25 of the unit
	// square; with side ~ U(0, rho] the exact expectation is
	// 10^4 * rho^2/3 = 1/3. Accept the analytic value with slack.
	if math.Abs(area-1.0/3.0) > 0.05 {
		t.Errorf("total area %g, want about 1/3", area)
	}
}

func TestTIGERLike(t *testing.T) {
	rects := TIGERLike(20000, 3)
	if len(rects) != 20000 {
		t.Fatalf("len = %d", len(rects))
	}
	bb := geom.MBR(rects)
	if !bb.AlmostEqual(geom.UnitSquare, 1e-9) {
		t.Errorf("not normalized: %v", bb)
	}
	// Road segments are thin: median of min-extent is small.
	thin := 0
	var occupied [8][8]bool
	for _, r := range rects {
		if math.Min(r.Width(), r.Height()) < 0.002 {
			thin++
		}
		c := r.Center()
		occupied[min(int(c.X*8), 7)][min(int(c.Y*8), 7)] = true
	}
	if float64(thin)/float64(len(rects)) < 0.8 {
		t.Errorf("only %d/%d rects are thin segments", thin, len(rects))
	}
	// Skew: some 1/64 cells of the square must be empty (ocean/harbor).
	empty := 0
	for i := range occupied {
		for j := range occupied[i] {
			if !occupied[i][j] {
				empty++
			}
		}
	}
	if empty < 5 {
		t.Errorf("only %d empty cells — Long Beach should have empty water regions", empty)
	}
}

func TestTIGERLikeSizes(t *testing.T) {
	for _, n := range []int{500, 5000, TIGERLikeSize} {
		rects := TIGERLike(n, 4)
		if len(rects) != n {
			t.Fatalf("n=%d: got %d", n, len(rects))
		}
	}
}

func TestCFDLike(t *testing.T) {
	pts := CFDLike(20000, 5)
	if len(pts) != 20000 {
		t.Fatalf("len = %d", len(pts))
	}
	bb := geom.MBRPoints(pts)
	if !bb.AlmostEqual(geom.UnitSquare, 1e-9) {
		t.Errorf("not normalized: %v", bb)
	}
	// Density skew: the densest 1% of a 64x64 grid should hold a large
	// share of all points (the boundary layer), and many cells are empty.
	const res = 64
	var counts [res * res]int
	for _, p := range pts {
		ix := min(int(p.X*res), res-1)
		iy := min(int(p.Y*res), res-1)
		counts[iy*res+ix]++
	}
	sorted := append([]int(nil), counts[:]...)
	for i := range sorted { // simple selection of top cells via sort
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
		if i >= 41 {
			break
		}
	}
	top := 0
	for i := 0; i < 41; i++ { // top 1% of 4096 cells
		top += sorted[i]
	}
	if float64(top)/float64(len(pts)) < 0.3 {
		t.Errorf("top 1%% of cells hold only %.1f%% of points — not skewed enough", 100*float64(top)/float64(len(pts)))
	}
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	if float64(empty)/float64(res*res) < 0.2 {
		t.Errorf("only %d empty cells — far field should be sparse", empty)
	}
}

func TestItemsWrappers(t *testing.T) {
	rects := SyntheticRegions(10, 1)
	items := Items(rects)
	for i, it := range items {
		if it.ID != int64(i) || !it.Rect.Equal(rects[i]) {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	pts := SyntheticPoints(10, 1)
	pitems := PointItems(pts)
	for i, it := range pitems {
		if it.Rect.Area() != 0 || it.Rect.Center() != pts[i] {
			t.Fatalf("point item %d = %+v", i, it)
		}
	}
}

func TestDatasetIORoundTrip(t *testing.T) {
	rects := SyntheticRegions(500, 9)
	var buf bytes.Buffer
	if err := WriteRects(&buf, rects); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if !got[i].Equal(rects[i]) {
			t.Fatalf("rect %d: %v != %v", i, got[i], rects[i])
		}
	}
}

func TestDatasetIOPoints(t *testing.T) {
	pts := SyntheticPoints(300, 10)
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Center() != pts[i] || got[i].Area() != 0 {
			t.Fatalf("point %d mangled", i)
		}
	}
}

func TestDatasetIOErrors(t *testing.T) {
	bad := []string{
		"",
		"not a dataset\n1 2 3 4\n",
		"rtreebuf-dataset v2 rects 1\n0 0 1 1\n",
		"rtreebuf-dataset v1 blobs 1\n0 0 1 1\n",
		"rtreebuf-dataset v1 rects x\n",
		"rtreebuf-dataset v1 rects 2\n0 0 1 1\n",     // count mismatch
		"rtreebuf-dataset v1 rects 1\n0 0 1\n",       // field count
		"rtreebuf-dataset v1 rects 1\n0 0 one 1\n",   // parse error
		"rtreebuf-dataset v1 rects 1\n0.5 0 0.1 1\n", // invalid rect
		"rtreebuf-dataset v1 points 1\n0.5\n",        // field count
		"rtreebuf-dataset v1 rects 1\nNaN 0 1 1\n",   // non-finite, either kind
		"rtreebuf-dataset v1 rects 1\n-Inf 0 Inf 1\n",
		"rtreebuf-dataset v1 points 1\n0.5 NaN\n",
		"rtreebuf-dataset v1 points 1\n+Inf 0.5\n",
	}
	for i, s := range bad {
		if _, err := ReadRects(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rects := TIGERLike(200, 6)
	path := dir + "/tiger.ds"
	if err := WriteRectsFile(path, rects); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRectsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) {
		t.Fatalf("len = %d", len(got))
	}
	pts := CFDLike(100, 6)
	ppath := dir + "/cfd.ds"
	if err := WritePointsFile(ppath, pts); err != nil {
		t.Fatal(err)
	}
	gotP, err := ReadRectsFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP) != len(pts) {
		t.Fatalf("points len = %d", len(gotP))
	}
	if _, err := ReadRectsFile(dir + "/missing.ds"); err == nil {
		t.Error("missing file read")
	}
}

func TestASCIIDensity(t *testing.T) {
	pts := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}, {X: 0.9, Y: 0.9}}
	art := ASCIIDensity(pts, 10, 5)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	for _, l := range lines {
		if len(l) != 10 {
			t.Fatalf("line width %d", len(l))
		}
	}
	// Top-right (y near 1) should be the densest glyph; bottom-left dimmer.
	if lines[0][9] == ' ' {
		t.Error("dense cell rendered empty")
	}
	if lines[4][1] == ' ' { // (0.1,0.1) -> column 1, bottom row
		t.Error("occupied cell rendered empty")
	}
	if lines[2][5] != ' ' {
		t.Error("empty cell rendered occupied")
	}
	if ASCIIDensity(pts, 0, 5) != "" {
		t.Error("zero width rendered")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
