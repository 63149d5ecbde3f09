// Quickstart: build an R-tree over random rectangles, query it, and ask
// the paper's cost model how many disk accesses a query will cost at
// different buffer sizes.
package main

import (
	"fmt"
	"log"

	"rtreebuf"
	"rtreebuf/internal/datagen"
)

func main() {
	// 1. Some data: 20,000 small rectangles in the unit square.
	rects := datagen.SyntheticRegions(20000, 7)
	items := datagen.Items(rects)

	// 2. Bulk-load an R-tree with Hilbert-sort packing, 50 entries/node.
	tree, err := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: 50}, items)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %d items, %d nodes, %d levels\n",
		tree.Len(), tree.NodeCount(), tree.Height())

	// 3. Run a window query.
	window := rtreebuf.Rect{MinX: 0.40, MinY: 0.40, MaxX: 0.45, MaxY: 0.45}
	hits := tree.SearchWindow(window)
	fmt.Printf("window %v intersects %d rectangles\n", window, len(hits))

	// 4. Predict query cost with the buffer-aware model: a 0.05 x 0.05
	// region query workload against LRU buffers of various sizes.
	qm, err := rtreebuf.NewUniformQueries(0.05, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	pred := rtreebuf.NewPredictor(tree.Levels(), qm)
	fmt.Printf("\nexpected nodes touched per query (bufferless metric): %.2f\n", pred.NodesVisited())
	fmt.Println("buffer pages -> predicted disk accesses per query:")
	for _, b := range []int{8, 32, 128, 512} {
		fmt.Printf("  %4d -> %6.3f  (hit ratio %.1f%%)\n",
			b, pred.DiskAccesses(b), 100*pred.HitRatio(b))
	}

	// 5. Insert and delete work too (Guttman's algorithms).
	extra := rtreebuf.Item{Rect: rtreebuf.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 999999}
	if err := tree.Insert(extra); err != nil {
		log.Fatal(err)
	}
	if !tree.Delete(extra) {
		log.Fatal("failed to delete the item just inserted")
	}
	fmt.Printf("\nafter insert+delete: %d items (unchanged), invariants: %v\n",
		tree.Len(), tree.CheckInvariants() == nil)
}
