// Command datagen emits the paper's data sets (Section 5.1) as dataset
// files, or renders them as ASCII density plots.
//
// Usage:
//
//	datagen -set tiger -n 53145 -o tiger.ds
//	datagen -set cfd -plot
//	datagen -set regions -n 100000 -o regions.ds
//
// Sets: tiger, cfd, points, regions.
package main

import (
	"flag"
	"fmt"
	"os"

	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
)

func main() {
	set := flag.String("set", "tiger", "data set: tiger, cfd, points, regions")
	n := flag.Int("n", 0, "number of records (0 = the paper's size for the set)")
	seed := flag.Uint64("seed", 1998, "generator seed")
	out := flag.String("o", "", "output file (default stdout)")
	plot := flag.Bool("plot", false, "render an ASCII density plot instead of records")
	flag.Parse()
	if *n < 0 {
		fmt.Fprintf(os.Stderr, "datagen: -n %d is negative\n", *n)
		os.Exit(2)
	}

	var rects []geom.Rect
	var points []geom.Point
	switch *set {
	case "tiger":
		if *n == 0 {
			*n = datagen.TIGERLikeSize
		}
		rects = datagen.TIGERLike(*n, *seed)
	case "cfd":
		if *n == 0 {
			*n = datagen.CFDLikeSize
		}
		points = datagen.CFDLike(*n, *seed)
	case "points":
		if *n == 0 {
			*n = 100000
		}
		points = datagen.SyntheticPoints(*n, *seed)
	case "regions":
		if *n == 0 {
			*n = 100000
		}
		rects = datagen.SyntheticRegions(*n, *seed)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown set %q\n", *set)
		os.Exit(2)
	}

	if *plot {
		if points == nil {
			points = geom.Centers(rects)
		}
		fmt.Print(datagen.ASCIIDensity(points, 100, 36))
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "datagen: closing %s: %v\n", *out, err)
				os.Exit(1)
			}
		}()
		w = f
	}
	var err error
	if rects != nil {
		err = datagen.WriteRects(w, rects)
	} else {
		err = datagen.WritePoints(w, points)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}
