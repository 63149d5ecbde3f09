// Command rtreeload builds an R-tree from a dataset file with a chosen
// loading algorithm, optionally persists it as a page file, and prints
// tree statistics plus cost-model predictions.
//
// Usage:
//
//	datagen -set tiger -o tiger.ds
//	rtreeload -in tiger.ds -alg hs -cap 100 -o tiger.rt
//	rtreeload -in tiger.ds -alg tat -buffers 10,100,500
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

func main() {
	in := flag.String("in", "", "input dataset file (required)")
	alg := flag.String("alg", "hs", "loading algorithm: "+algorithmNames())
	capacity := flag.Int("cap", 100, "node capacity (entries per page)")
	out := flag.String("o", "", "persist the tree to this page file")
	buffers := flag.String("buffers", "10,50,100,200,500", "buffer sizes for model predictions (0 is the bufferless case)")
	qx := flag.Float64("qx", 0, "query width (0 = point queries)")
	qy := flag.Float64("qy", 0, "query height (0 = point queries)")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "rtreeload: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	sizes, err := parseBuffers(*buffers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreeload: -buffers: %v\n", err)
		os.Exit(2)
	}

	rects, err := datagen.ReadRectsFile(*in)
	fatalIf(err)

	tree, err := pack.Load(pack.Algorithm(*alg), rtree.Params{MaxEntries: *capacity}, datagen.Items(rects))
	fatalIf(err)
	fatalIf(tree.CheckInvariants())

	st := tree.ComputeStats()
	fmt.Printf("algorithm:      %s\n", *alg)
	fmt.Printf("items:          %d\n", st.Items)
	fmt.Printf("levels:         %d\n", st.Levels)
	fmt.Printf("nodes:          %d (per level root..leaf: %v)\n", st.Nodes, st.NodesPerLevel)
	fmt.Printf("avg node fill:  %.1f%%\n", 100*st.AvgFill)
	fmt.Printf("total MBR area: %.4f  (expected nodes per point query, eq. 1)\n", st.TotalArea)
	fmt.Printf("extent sums:    Lx=%.4f Ly=%.4f\n", st.TotalXExtent, st.TotalYExtent)

	qm, err := core.NewUniformQueries(*qx, *qy)
	fatalIf(err)
	pred := core.NewPredictor(tree.Levels(), qm)
	fmt.Printf("\nuniform %gx%g queries: EPT (nodes visited) = %.4f\n", *qx, *qy, pred.NodesVisited())
	fmt.Printf("%-8s  %-12s  %-10s\n", "buffer", "disk/query", "hit ratio")
	for _, b := range sizes {
		fmt.Printf("%-8d  %-12.4f  %-10.4f\n", b, pred.DiskAccesses(b), pred.HitRatio(b))
	}

	if *out != "" {
		// Atomic: an index already at *out stays whole until the new one
		// is durable, then is replaced in one rename.
		fatalIf(storage.SaveTreeAtomic(*out, storage.DefaultPageSize, tree))
		fmt.Printf("\npersisted %d pages to %s\n", tree.NodeCount(), *out)
	}
}

// algorithmNames lists the loading algorithms pack.Load accepts, for the
// -alg help.
func algorithmNames() string {
	names := make([]string, 0, len(pack.Algorithms()))
	for _, a := range pack.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, ", ")
}

// parseBuffers reads the comma-separated -buffers list. Sizes must not
// be negative; 0 is the bufferless case.
func parseBuffers(list string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(list, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if b < 0 {
			return nil, fmt.Errorf("negative buffer size %d", b)
		}
		sizes = append(sizes, b)
	}
	return sizes, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtreeload: %v\n", err)
		os.Exit(1)
	}
}
