package datagen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"rtreebuf/internal/geom"
)

// Dataset file format: a plain-text header line
//
//	rtreebuf-dataset v1 <rects|points> <count>
//
// followed by one record per line — four (rects) or two (points)
// space-separated decimal floats. Human-inspectable and diff-friendly;
// the experiments are small enough that text I/O is never the bottleneck.

// WriteRects writes rectangles to w in dataset format.
func WriteRects(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "rtreebuf-dataset v1 rects %d\n", len(rects)); err != nil {
		return err
	}
	for _, r := range rects {
		if _, err := fmt.Fprintf(bw, "%.17g %.17g %.17g %.17g\n", r.MinX, r.MinY, r.MaxX, r.MaxY); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePoints writes points to w in dataset format.
func WritePoints(w io.Writer, points []geom.Point) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "rtreebuf-dataset v1 points %d\n", len(points)); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(bw, "%.17g %.17g\n", p.X, p.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRects reads a dataset of either kind from r, converting points to
// degenerate rectangles.
func ReadRects(r io.Reader) ([]geom.Rect, error) {
	kind, count, sc, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	// The header count is untrusted input: use it as a capacity hint only
	// up to a sane bound, so a corrupt header cannot force a huge
	// allocation before a single record is read.
	hint := count
	if hint > 1<<20 {
		hint = 1 << 20
	}
	out := make([]geom.Rect, 0, hint)
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		want := 4
		if kind == "points" {
			want = 2
		}
		if len(fields) != want {
			return nil, fmt.Errorf("datagen: line %d: want %d fields, got %d", line, want, len(fields))
		}
		var v [4]float64
		for i, f := range fields {
			if v[i], err = parseCoord(f); err != nil {
				return nil, fmt.Errorf("datagen: line %d: %w", line, err)
			}
		}
		rect := geom.Rect{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}
		if kind == "points" {
			rect = geom.PointRect(geom.Point{X: v[0], Y: v[1]})
		}
		if !rect.Valid() {
			return nil, fmt.Errorf("datagen: line %d: invalid rect %v", line, rect)
		}
		out = append(out, rect)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("datagen: reading dataset: %w", err)
	}
	if len(out) != count {
		return nil, fmt.Errorf("datagen: header claims %d records, file has %d", count, len(out))
	}
	return out, nil
}

// parseCoord parses one coordinate. NaN and the infinities parse as floats
// but are not coordinates: a NaN has no place in any ordering, and an
// infinite extent makes every area and margin the loaders compare
// infinite or NaN.
func parseCoord(field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite coordinate %q", field)
	}
	return v, nil
}

func readHeader(r io.Reader) (kind string, count int, sc *bufio.Scanner, err error) {
	sc = bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", 0, nil, fmt.Errorf("datagen: reading header: %w", err)
		}
		return "", 0, nil, fmt.Errorf("datagen: empty dataset file")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 4 || fields[0] != "rtreebuf-dataset" || fields[1] != "v1" {
		return "", 0, nil, fmt.Errorf("datagen: not a dataset file (header %q)", sc.Text())
	}
	kind = fields[2]
	if kind != "rects" && kind != "points" {
		return "", 0, nil, fmt.Errorf("datagen: unknown record kind %q", kind)
	}
	count, err = strconv.Atoi(fields[3])
	if err != nil || count < 0 {
		return "", 0, nil, fmt.Errorf("datagen: bad record count %q", fields[3])
	}
	return kind, count, sc, nil
}

// WriteRectsFile writes rectangles to a file path.
func WriteRectsFile(path string, rects []geom.Rect) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteRects(f, rects); err != nil {
		_ = f.Close() // the original error is the one worth reporting
		return err
	}
	return f.Close()
}

// WritePointsFile writes points to a file path.
func WritePointsFile(path string, points []geom.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePoints(f, points); err != nil {
		_ = f.Close() // the original error is the one worth reporting
		return err
	}
	return f.Close()
}

// ReadRectsFile reads a dataset file.
func ReadRectsFile(path string) ([]geom.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRects(f)
}

// ASCIIDensity renders a points density plot as text, the tooling stand-in
// for the paper's Fig. 5 scatter plots: darker glyphs mean more points per
// cell.
func ASCIIDensity(points []geom.Point, width, height int) string {
	if width < 1 || height < 1 {
		return ""
	}
	counts := make([]int, width*height)
	max := 0
	for _, p := range points {
		ix := int(p.X * float64(width))
		iy := int(p.Y * float64(height))
		if ix >= width {
			ix = width - 1
		}
		if iy >= height {
			iy = height - 1
		}
		if ix < 0 || iy < 0 {
			continue
		}
		counts[iy*width+ix]++
		if counts[iy*width+ix] > max {
			max = counts[iy*width+ix]
		}
	}
	glyphs := []byte(" .:-=+*#%@")
	var b strings.Builder
	for iy := height - 1; iy >= 0; iy-- { // top row = y near 1
		for ix := 0; ix < width; ix++ {
			c := counts[iy*width+ix]
			g := 0
			if max > 0 && c > 0 {
				g = 1 + c*(len(glyphs)-2)/max
				if g >= len(glyphs) {
					g = len(glyphs) - 1
				}
			}
			b.WriteByte(glyphs[g])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
