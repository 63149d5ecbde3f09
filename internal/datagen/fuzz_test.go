package datagen

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadRects throws arbitrary text at the dataset parser: it must
// return an error or a list of valid rectangles, never panic, and every
// accepted input must survive a write/read round trip.
func FuzzReadRects(f *testing.F) {
	var rectsFile bytes.Buffer
	if err := WriteRects(&rectsFile, SyntheticRegions(5, 1)); err != nil {
		f.Fatal(err)
	}
	var pointsFile bytes.Buffer
	if err := WritePoints(&pointsFile, SyntheticPoints(5, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(rectsFile.String())
	f.Add(pointsFile.String())
	f.Add("")
	f.Add("rtreebuf-dataset v1 rects 1\n0 0 1 1\n")
	f.Add("rtreebuf-dataset v1 rects 1\nnan nan nan nan\n")
	f.Add("rtreebuf-dataset v1 rects 1\n-inf -inf +inf +inf\n")
	f.Add("rtreebuf-dataset v1 points 2\n0.5 0.5\n")
	f.Add("rtreebuf-dataset v1 points 1\nnan 0.5\n")
	f.Add("rtreebuf-dataset v1 points 1\n0.5 -Inf\n")
	f.Add("rtreebuf-dataset v1 rects 999999999\n")

	f.Fuzz(func(t *testing.T, input string) {
		rects, err := ReadRects(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, r := range rects {
			if !r.Valid() {
				t.Fatalf("parser accepted invalid rect %v", r)
			}
			for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parser accepted non-finite rect %v", r)
				}
			}
		}
		var out bytes.Buffer
		if err := WriteRects(&out, rects); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		back, err := ReadRects(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(rects) {
			t.Fatalf("round trip count %d != %d", len(back), len(rects))
		}
	})
}
