package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
)

// TreeMeta is the catalog entry of a persisted R-tree.
type TreeMeta struct {
	MaxEntries int
	MinEntries int
	Split      rtree.SplitAlgorithm
	Items      int   // number of data rectangles
	Levels     []int // nodes per level, root first

	// LevelOrder reports whether pages are numbered in level order
	// (pages of level i contiguous, the layout SaveTree produces).
	// In-place updates break this layout: a split allocates its new
	// page at the end of the file (or from the free list), wherever
	// that lands. Once false, LevelPageRange is meaningless and
	// readers must walk from the root instead of scanning ranges.
	LevelOrder bool

	// TotalPages is the page span of the file, live and free pages
	// together. Equal to NumPages() while LevelOrder holds.
	TotalPages int

	// Free lists pages released by node merges and root shrinks,
	// available for reuse by later splits. Free pages hold stale
	// bytes; no reader may visit them.
	Free []int
}

// NumPages returns the number of live node pages.
func (m TreeMeta) NumPages() int {
	n := 0
	for _, c := range m.Levels {
		n += c
	}
	return n
}

// PageSpan returns the page-number space of the file — the bound for
// buffer sizing and page iteration. For level-order trees it equals
// NumPages(); for updated trees it includes free pages.
func (m TreeMeta) PageSpan() int {
	if m.TotalPages > m.NumPages() {
		return m.TotalPages
	}
	return m.NumPages()
}

// LevelPageRange returns the half-open page range [lo,hi) of the given
// level: page numbering is level order, so each level is contiguous.
func (m TreeMeta) LevelPageRange(level int) (lo, hi int) {
	for i := 0; i < level; i++ {
		lo += m.Levels[i]
	}
	return lo, lo + m.Levels[level]
}

const (
	metaMagic   = uint32(0x52545231) // "RTR1": level-order layout
	metaMagicV2 = uint32(0x52545232) // "RTR2": adds flags, page span, free list
)

const metaFlagLevelOrder = uint32(1 << 0)

func encodeMeta(m TreeMeta) []byte {
	buf := make([]byte, 0, 32+8*len(m.Levels))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		buf = append(buf, tmp[:8]...)
	}
	put32(metaMagic)
	put32(uint32(m.MaxEntries))
	put32(uint32(m.MinEntries))
	put32(uint32(m.Split))
	put64(uint64(m.Items))
	put32(uint32(len(m.Levels)))
	for _, c := range m.Levels {
		put32(uint32(c))
	}
	return buf
}

// encodeMetaV2 serializes the full catalog, including the layout flag,
// page span, and free list the update path maintains. SaveTree keeps
// writing v1 (its output is always level-order, and v1 files stay
// readable by older tooling); the updater switches a tree to v2 on its
// first committed batch.
func encodeMetaV2(m TreeMeta) []byte {
	buf := make([]byte, 0, 40+4*len(m.Levels)+4*len(m.Free))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		buf = append(buf, tmp[:8]...)
	}
	put32(metaMagicV2)
	put32(uint32(m.MaxEntries))
	put32(uint32(m.MinEntries))
	put32(uint32(m.Split))
	put64(uint64(m.Items))
	var flags uint32
	if m.LevelOrder {
		flags |= metaFlagLevelOrder
	}
	put32(flags)
	put32(uint32(m.PageSpan()))
	put32(uint32(len(m.Levels)))
	put32(uint32(len(m.Free)))
	for _, c := range m.Levels {
		put32(uint32(c))
	}
	for _, p := range m.Free {
		put32(uint32(p))
	}
	return buf
}

func decodeMeta(buf []byte) (TreeMeta, error) {
	var m TreeMeta
	if len(buf) < 28 {
		return m, fmt.Errorf("storage: tree metadata truncated (%d bytes)", len(buf))
	}
	magic := binary.LittleEndian.Uint32(buf[0:4])
	if magic != metaMagic && magic != metaMagicV2 {
		return m, fmt.Errorf("storage: bad tree metadata magic")
	}
	m.MaxEntries = int(binary.LittleEndian.Uint32(buf[4:8]))
	m.MinEntries = int(binary.LittleEndian.Uint32(buf[8:12]))
	m.Split = rtree.SplitAlgorithm(binary.LittleEndian.Uint32(buf[12:16]))
	m.Items = int(binary.LittleEndian.Uint64(buf[16:24]))

	if magic == metaMagic {
		n := int(binary.LittleEndian.Uint32(buf[24:28]))
		if n < 0 || len(buf) < 28+4*n {
			return m, fmt.Errorf("storage: tree metadata truncated (levels)")
		}
		m.Levels = make([]int, n)
		for i := 0; i < n; i++ {
			m.Levels[i] = int(binary.LittleEndian.Uint32(buf[28+4*i:]))
		}
		m.LevelOrder = true
		m.TotalPages = m.NumPages()
		return m, nil
	}

	if len(buf) < 40 {
		return m, fmt.Errorf("storage: tree metadata truncated (%d bytes)", len(buf))
	}
	flags := binary.LittleEndian.Uint32(buf[24:28])
	m.LevelOrder = flags&metaFlagLevelOrder != 0
	m.TotalPages = int(binary.LittleEndian.Uint32(buf[28:32]))
	nLevels := int(binary.LittleEndian.Uint32(buf[32:36]))
	nFree := int(binary.LittleEndian.Uint32(buf[36:40]))
	if nLevels < 0 || nFree < 0 || len(buf) < 40+4*nLevels+4*nFree {
		return m, fmt.Errorf("storage: tree metadata truncated (levels/free)")
	}
	m.Levels = make([]int, nLevels)
	for i := 0; i < nLevels; i++ {
		m.Levels[i] = int(binary.LittleEndian.Uint32(buf[40+4*i:]))
	}
	if nFree > 0 {
		m.Free = make([]int, nFree)
		for i := 0; i < nFree; i++ {
			m.Free[i] = int(binary.LittleEndian.Uint32(buf[40+4*nLevels+4*i:]))
		}
	}
	if m.TotalPages < m.NumPages() {
		return m, fmt.Errorf("storage: tree metadata inconsistent (%d total pages, %d live)",
			m.TotalPages, m.NumPages())
	}
	return m, nil
}

// SaveTree writes every node of t to dm in level order (root = page 0)
// and records the catalog in the manager's metadata.
func SaveTree(dm DiskManager, t *rtree.Tree) error {
	if cap := NodeCapacity(dm.PageSize()); t.Params().MaxEntries > cap {
		return fmt.Errorf("storage: node capacity %d exceeds page capacity %d (page size %d)",
			t.Params().MaxEntries, cap, dm.PageSize())
	}
	nodes := t.ExportNodes()
	for _, nd := range nodes {
		page, err := EncodeNode(nd, dm.PageSize())
		if err != nil {
			return err
		}
		if err := dm.WritePage(nd.Page, page); err != nil {
			return err
		}
	}
	meta := TreeMeta{
		MaxEntries: t.Params().MaxEntries,
		MinEntries: t.Params().MinEntries,
		Split:      t.Params().Split,
		Items:      t.Len(),
		Levels:     t.NodesPerLevel(),
	}
	return dm.WriteMeta(encodeMeta(meta))
}

// SaveTreeAtomic persists t to path with all-or-nothing semantics: the
// tree is written to a temporary file in the same directory, synced,
// and renamed over path only once every byte is durable. A crash at any
// point leaves either the complete old file or the complete new one —
// never a torn mix — which SaveTree over an existing file cannot
// promise (it overwrites pages in place).
func SaveTreeAtomic(path string, pageSize int, t *rtree.Tree) error {
	return SaveTreeAtomicWith(path, pageSize, t, nil)
}

// SaveTreeAtomicWith is SaveTreeAtomic with an injectable wrapper around
// the temporary file's manager — the hook the fault harness uses to
// interrupt the save at any chosen write. wrap may be nil.
func SaveTreeAtomicWith(path string, pageSize int, t *rtree.Tree, wrap func(DiskManager) DiskManager) error {
	dir := filepath.Dir(path)
	tmpf, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("storage: creating temp file for atomic save: %w", err)
	}
	tmp := tmpf.Name()
	if err := tmpf.Close(); err != nil {
		_ = os.Remove(tmp) // the close failure is the one worth reporting
		return fmt.Errorf("storage: closing temp file %s: %w", tmp, err)
	}
	fm, err := CreateFile(tmp, pageSize)
	if err != nil {
		_ = os.Remove(tmp) // the create failure is the one worth reporting
		return err
	}
	var dm DiskManager = fm
	if wrap != nil {
		dm = wrap(fm)
	}
	if err := SaveTree(dm, t); err != nil {
		// Release the real file even if the wrapper is fail-stop, then
		// drop the partial temp so a failed save leaves no debris.
		_ = fm.f.Close() // the save failure is the one worth reporting
		_ = os.Remove(tmp)
		return err
	}
	if err := fm.Close(); err != nil { // flushes the header, then syncs
		_ = os.Remove(tmp) // the close failure is the one worth reporting
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // the rename failure is the one worth reporting
		return fmt.Errorf("storage: atomic rename to %s: %w", path, err)
	}
	// Sync the directory so the rename itself survives a crash.
	// Best-effort: some platforms cannot sync directories.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadTree reads a persisted tree fully into memory, validating its
// structure. Use OpenPagedTree instead to query on-disk pages through a
// buffer pool.
func LoadTree(dm DiskManager) (*rtree.Tree, error) {
	metaBuf, err := dm.ReadMeta()
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(metaBuf)
	if err != nil {
		return nil, err
	}
	nodes, err := readLiveNodes(dm, meta)
	if err != nil {
		return nil, err
	}
	return rtree.ImportNodes(rtree.Params{
		MaxEntries: meta.MaxEntries,
		MinEntries: meta.MinEntries,
		Split:      meta.Split,
	}, nodes)
}

// readLiveNodes reads every live node page. Level-order trees are read
// with one linear scan; updated trees are walked from the root, since
// their files interleave live and free pages and free pages hold stale
// bytes that must not be decoded.
func readLiveNodes(dm DiskManager, meta TreeMeta) ([]rtree.NodeData, error) {
	buf := make([]byte, dm.PageSize())
	if meta.LevelOrder {
		n := meta.NumPages()
		nodes := make([]rtree.NodeData, n)
		for page := 0; page < n; page++ {
			if err := dm.ReadPage(page, buf); err != nil {
				return nil, err
			}
			var err error
			nodes[page], err = DecodeNode(buf, page)
			if err != nil {
				return nil, err
			}
		}
		return nodes, nil
	}

	span := meta.PageSpan()
	nodes := make([]rtree.NodeData, 0, meta.NumPages())
	seen := make(map[int]bool, meta.NumPages())
	stack := []int{0}
	for len(stack) > 0 {
		page := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if page < 0 || page >= span {
			return nil, fmt.Errorf("storage: child page %d outside file span %d", page, span)
		}
		if seen[page] {
			return nil, fmt.Errorf("storage: page %d reachable twice (cycle or shared child)", page)
		}
		seen[page] = true
		if err := dm.ReadPage(page, buf); err != nil {
			return nil, err
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			return nil, err
		}
		if !nd.Leaf {
			stack = append(stack, nd.Children...)
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// PagedTree executes R-tree queries directly against stored pages through
// an LRU buffer pool: every pool miss is one counted disk access. It is
// the end-to-end realization of the system the paper models — compare its
// measured misses per query with core.Predictor.DiskAccesses.
type PagedTree struct {
	dm   DiskManager
	pool buffer.PagePool
	meta TreeMeta

	// fr, when attached, records per-query access attribution (nil — the
	// default — is the disabled recorder; the query paths call it
	// unconditionally with zero overhead).
	fr *obs.FlightRecorder

	// Update-path state, nil/zero on read-only trees (OpenPagedTree).
	wal       *WAL             // write-ahead log; non-nil enables Insert/Delete
	ckpt      CheckpointPolicy // when to truncate the log
	updateErr error            // sticky: a half-applied commit poisons the handle
	ckptErr   error            // sticky warning: last due checkpoint failed; the op still committed
}

// dmSource adapts DiskManager to buffer.PageSource.
type dmSource struct{ dm DiskManager }

func (s dmSource) PageSize() int                       { return s.dm.PageSize() }
func (s dmSource) ReadPage(page int, dst []byte) error { return s.dm.ReadPage(page, dst) }

// OpenPagedTree opens a persisted tree for buffered querying with the
// given buffer capacity in pages, using the single-goroutine LRU pool
// the paper models (no lock: one query at a time). OpenPagedTreeWith
// selects other policies or the sharded pool concurrent readers need.
func OpenPagedTree(dm DiskManager, bufferPages int) (*PagedTree, error) {
	return OpenPagedTreeWith(dm, bufferPages, "", 1)
}

// OpenPagedTreeWith opens a persisted tree for buffered querying with a
// named replacement policy (see buffer.PolicyNames; "" means LRU) and a
// shard count. shards <= 1 selects Pool, which has no lock and serves
// one goroutine at a time; shards > 1 selects the lock-striped
// ShardedPool, the pool concurrent readers need, whose hit path scales
// across them at a hit-rate cost ext-policy shows to be within a few
// percent.
func OpenPagedTreeWith(dm DiskManager, bufferPages int, policy string, shards int) (*PagedTree, error) {
	factory, err := buffer.FactoryFor(policy)
	if err != nil {
		return nil, err
	}
	metaBuf, err := dm.ReadMeta()
	if err != nil {
		return nil, err
	}
	meta, err := decodeMeta(metaBuf)
	if err != nil {
		return nil, err
	}
	if meta.NumPages() == 0 {
		return nil, fmt.Errorf("storage: persisted tree has no pages")
	}
	var pool buffer.PagePool
	if shards > 1 {
		pool = buffer.NewShardedPoolWith(dmSource{dm}, bufferPages, meta.PageSpan(), shards, factory)
	} else {
		pool = buffer.NewPoolWith(dmSource{dm}, bufferPages, meta.PageSpan(), factory)
	}
	return &PagedTree{
		dm:   dm,
		pool: pool,
		meta: meta,
	}, nil
}

// Meta returns the tree catalog.
func (pt *PagedTree) Meta() TreeMeta { return pt.meta }

// Pool exposes the underlying buffer pool (for statistics and pinning).
func (pt *PagedTree) Pool() buffer.PagePool { return pt.pool }

// readNode is the one place a node is read: page through the buffer
// pool, then decoded (which verifies the page checksum). The pool's
// per-access attribution is returned even when the read or the decode
// fails, for the flight recorder.
func (pt *PagedTree) readNode(page int) (rtree.NodeData, buffer.AccessInfo, error) {
	frame, info, err := pt.pool.GetTracked(page)
	if err != nil {
		return rtree.NodeData{}, info, err
	}
	nd, err := DecodeNode(frame, page)
	return nd, info, err
}

// SetFlightRecorder attaches (or with nil detaches) the query-path
// flight recorder. Recording only observes the pool's per-access
// attribution — it never changes which pages a query reads or what it
// returns.
func (pt *PagedTree) SetFlightRecorder(fr *obs.FlightRecorder) { pt.fr = fr }

// PinLevels pins the top n levels of the tree in the buffer, the policy
// studied in Section 5.5. On a level-order tree level pages are
// contiguous, so this pins pages [0, pages(level<n)); on an updated
// tree it walks from the root to find them.
func (pt *PagedTree) PinLevels(n int) error {
	if n < 0 || n > len(pt.meta.Levels) {
		return fmt.Errorf("storage: pin %d levels of a %d-level tree", n, len(pt.meta.Levels))
	}
	if !pt.meta.LevelOrder {
		return pt.pinWalk(0, 0, n)
	}
	for level := 0; level < n; level++ {
		lo, hi := pt.meta.LevelPageRange(level)
		for page := lo; page < hi; page++ {
			if err := pt.pool.Pin(page); err != nil {
				return fmt.Errorf("storage: pinning level %d: %w", level, err)
			}
		}
	}
	return nil
}

// pinWalk pins page (at the given depth) and recurses into its children
// while depth+1 < n. Structure is read through the disk manager, not the
// pool, so the discovery reads do not perturb hit/miss accounting — only
// the Pin loads themselves touch the buffer, as in the level-order path.
func (pt *PagedTree) pinWalk(page, depth, n int) error {
	if err := pt.pool.Pin(page); err != nil {
		return fmt.Errorf("storage: pinning level %d: %w", depth, err)
	}
	if depth+1 >= n || depth == len(pt.meta.Levels)-1 {
		return nil
	}
	buf := make([]byte, pt.dm.PageSize())
	if err := pt.dm.ReadPage(page, buf); err != nil {
		return err
	}
	nd, err := DecodeNode(buf, page)
	if err != nil {
		return err
	}
	if nd.Leaf {
		return nil
	}
	for _, child := range nd.Children {
		if err := pt.pinWalk(child, depth+1, n); err != nil {
			return err
		}
	}
	return nil
}

// SearchWindow reports every stored item intersecting q, reading node
// pages through the buffer pool in DFS order (the order a real R-tree
// search issues page requests).
func (pt *PagedTree) SearchWindow(q geom.Rect) ([]rtree.Item, error) {
	var out []rtree.Item
	aq := pt.fr.Begin("window")
	err := pt.search(0, 0, q, &out, aq, nil)
	aq.SetResults(len(out))
	aq.End()
	return out, err
}

// SearchPoint is SearchWindow for a degenerate point query.
func (pt *PagedTree) SearchPoint(p geom.Point) ([]rtree.Item, error) {
	return pt.SearchWindow(geom.PointRect(p))
}

// CorruptionReport lists the pages a degraded search had to skip, with
// the error each one failed on. An empty report means the query saw
// only healthy pages and its result is complete.
type CorruptionReport struct {
	Faults []PageFault
}

// Degraded reports whether any subtree was skipped (the result set may
// be missing items stored under the damaged pages).
func (r *CorruptionReport) Degraded() bool { return len(r.Faults) > 0 }

// SearchWindowDegraded is SearchWindow in graceful-degradation mode:
// instead of failing the whole query on the first unreadable or corrupt
// page, it skips that subtree, keeps answering from healthy pages, and
// records the damage in the returned report. The result is a complete
// answer when the report is clean and a best-effort lower bound when it
// is not — the opt-in behaviour for serving reads off a partially
// damaged file while a repair (Scrub + re-save) is scheduled.
func (pt *PagedTree) SearchWindowDegraded(q geom.Rect) ([]rtree.Item, *CorruptionReport) {
	var out []rtree.Item
	rep := &CorruptionReport{}
	aq := pt.fr.Begin("window")
	_ = pt.search(0, 0, q, &out, aq, rep) // with a report, faults are recorded there and never returned
	aq.SetResults(len(out))
	aq.End()
	return out, rep
}

// SearchPointDegraded is SearchWindowDegraded for a point query.
func (pt *PagedTree) SearchPointDegraded(p geom.Point) ([]rtree.Item, *CorruptionReport) {
	return pt.SearchWindowDegraded(geom.PointRect(p))
}

// Nearest returns the k stored items closest to p (Euclidean distance to
// the rectangle), reading node pages through the buffer pool in best-first
// order — the Hjaltason–Samet algorithm over paged storage, on the same
// queue and loop as the in-memory tree (rtree.Frontier). Each pool miss
// is one counted disk access, so kNN workloads can be priced the same
// way window queries are.
func (pt *PagedTree) Nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	// A node is referenced by its page and, for access attribution, its
	// tree level.
	type pageRef struct{ page, depth int }
	aq := pt.fr.Begin("nearest")
	var f rtree.Frontier[pageRef]
	out, err := f.BestFirst(p, pageRef{}, k, math.Inf(1), func(n pageRef) error {
		nd, info, err := pt.readNode(n.page)
		aq.Access(n.depth, info.Hit, info.WriteBacks)
		if err != nil {
			return err
		}
		for i, r := range nd.Rects {
			if nd.Leaf {
				f.PushItem(r, nd.IDs[i])
			} else {
				f.PushNode(r, pageRef{nd.Children[i], n.depth + 1})
			}
		}
		return nil
	})
	aq.SetResults(len(out))
	aq.End()
	return out, err
}

// ScanLeaves visits every stored item by reading the leaf pages
// sequentially through the buffer pool — the sequential-scan access path
// a query optimizer weighs against the index (examples/optimizer). The
// leaf level is the last contiguous page range, so this is one linear
// pass of meta.Levels[last] page reads.
func (pt *PagedTree) ScanLeaves(visit func(rtree.Item) error) error {
	if !pt.meta.LevelOrder {
		return pt.scanLeavesWalk(0, visit)
	}
	lo, hi := pt.meta.LevelPageRange(len(pt.meta.Levels) - 1)
	for page := lo; page < hi; page++ {
		nd, _, err := pt.readNode(page)
		if err != nil {
			return err
		}
		if !nd.Leaf {
			return fmt.Errorf("storage: page %d in leaf range is not a leaf", page)
		}
		for i, r := range nd.Rects {
			if err := visit(rtree.Item{Rect: r, ID: nd.IDs[i]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanLeavesWalk visits every item of a non-level-order tree by DFS: the
// leaf pages are scattered through the file, so the scan pays the same
// page reads a full-window search would (through the pool, each miss one
// counted access).
func (pt *PagedTree) scanLeavesWalk(page int, visit func(rtree.Item) error) error {
	nd, _, err := pt.readNode(page)
	if err != nil {
		return err
	}
	if nd.Leaf {
		for i, r := range nd.Rects {
			if err := visit(rtree.Item{Rect: r, ID: nd.IDs[i]}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, child := range nd.Children {
		if err := pt.scanLeavesWalk(child, visit); err != nil {
			return err
		}
	}
	return nil
}

// search is the one window search. Every node read is attributed to the
// flight recorder, failed ones included. What a failed read does depends
// on rep: nil fails the whole query fast; a report records the fault,
// skips that subtree and lets the search go on (graceful degradation).
func (pt *PagedTree) search(page, depth int, q geom.Rect, out *[]rtree.Item, aq *obs.ActiveQuery, rep *CorruptionReport) error {
	nd, info, err := pt.readNode(page)
	aq.Access(depth, info.Hit, info.WriteBacks)
	if err != nil {
		if rep == nil {
			return err
		}
		rep.Faults = append(rep.Faults, PageFault{Page: page, Err: err})
		return nil
	}
	for i, r := range nd.Rects {
		if !r.Intersects(q) {
			continue
		}
		if nd.Leaf {
			*out = append(*out, rtree.Item{Rect: r, ID: nd.IDs[i]})
		} else if err := pt.search(nd.Children[i], depth+1, q, out, aq, rep); err != nil {
			return err
		}
	}
	return nil
}
