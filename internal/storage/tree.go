package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

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
	if err := savePages(dm, t.PageExporter()); err != nil {
		return err
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
// bytes that must not be decoded. A page does not store its node's level:
// it is the level range the page falls in, or the depth the walk found it
// at.
func readLiveNodes(dm DiskManager, meta TreeMeta) ([]rtree.NodeData, error) {
	buf := make([]byte, dm.PageSize())
	read := func(page, level int) (rtree.NodeData, error) {
		if err := dm.ReadPage(page, buf); err != nil {
			return rtree.NodeData{}, err
		}
		nd, err := DecodeNode(buf, page)
		nd.Level = level
		return nd, err
	}
	nodes := make([]rtree.NodeData, 0, meta.NumPages())
	if meta.LevelOrder {
		for level := range meta.Levels {
			lo, hi := meta.LevelPageRange(level)
			for page := lo; page < hi; page++ {
				nd, err := read(page, level)
				if err != nil {
					return nil, err
				}
				nodes = append(nodes, nd)
			}
		}
		return nodes, nil
	}

	span := meta.PageSpan()
	seen := make(map[int]bool, meta.NumPages())
	stack := []pageRef{{page: 0, depth: 0}}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if ref.page < 0 || ref.page >= span {
			return nil, fmt.Errorf("storage: child page %d outside file span %d", ref.page, span)
		}
		if seen[ref.page] {
			return nil, fmt.Errorf("storage: page %d reachable twice (cycle or shared child)", ref.page)
		}
		seen[ref.page] = true
		nd, err := read(ref.page, ref.depth)
		if err != nil {
			return nil, err
		}
		for _, child := range nd.Children {
			stack = append(stack, pageRef{page: child, depth: ref.depth + 1})
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

	// queries recycles per-query scratch (*query) between queries, so a
	// steady-state query allocates its result slice and nothing else.
	queries sync.Pool

	// Update-path state, nil/zero on read-only trees (OpenPagedTree).
	wal       *WAL             // write-ahead log; non-nil enables Insert/Delete
	wpool     *buffer.Pool     // pool, as the type that takes writes; set with wal
	ckpt      CheckpointPolicy // when to truncate the log
	updateErr error            // sticky: a half-applied commit poisons the handle
	ckptErr   error            // sticky warning: last due checkpoint failed; the op still committed
}

// dmSource adapts DiskManager to buffer.PageSource and is where pages
// are checked: every page entering the pool — a Get or View fault, a Pin
// — passes validatePage first, and one that fails is a failed read that
// never becomes resident. So a resident frame either passed validation
// when it was read or was produced by EncodeNode in this process and Put,
// and the query paths read frames in place without checking them again.
type dmSource struct{ dm DiskManager }

func (s dmSource) PageSize() int { return s.dm.PageSize() }

func (s dmSource) ReadPage(page int, dst []byte) error {
	if err := s.dm.ReadPage(page, dst); err != nil {
		return err
	}
	return validatePage(dst[:s.dm.PageSize()], page)
}

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
	meta, err := openMeta(dm)
	if err != nil {
		return nil, err
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

// openMeta reads the catalog of a tree about to be opened for querying.
func openMeta(dm DiskManager) (TreeMeta, error) {
	metaBuf, err := dm.ReadMeta()
	if err != nil {
		return TreeMeta{}, err
	}
	meta, err := decodeMeta(metaBuf)
	if err != nil {
		return TreeMeta{}, err
	}
	if meta.NumPages() == 0 {
		return TreeMeta{}, fmt.Errorf("storage: persisted tree has no pages")
	}
	return meta, nil
}

// Meta returns the tree catalog.
func (pt *PagedTree) Meta() TreeMeta { return pt.meta }

// Pool exposes the underlying buffer pool (for statistics and pinning).
func (pt *PagedTree) Pool() buffer.PagePool { return pt.pool }

// readNode materializes the node on page for the update path, which
// needs a NodeData to mutate; queries read frames in place (see query).
// The frame was validated when it entered the pool, so this only decodes.
// The pool's per-access attribution is returned even when the read fails.
func (pt *PagedTree) readNode(page int) (rtree.NodeData, buffer.AccessInfo, error) {
	var nd rtree.NodeData
	info, err := pt.pool.View(page, func(frame []byte) { nd = decodeValidated(frame, page) })
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

// pageRef references a node by its page and, for access attribution, its
// tree level.
type pageRef struct{ page, depth int }

// query is the state of one query in flight, recycled through
// PagedTree.queries. It reads every node in place, in the frame the pool
// lends to View, and strictly in two phases: inside the callback it
// scans the whole frame into its own slices — matching leaf entries into
// items, matching children into kids, frontier entries into the heap —
// and only after View has returned does it ask for the next page. A
// frame is never read after another pool operation: Pool recycles an
// evicted frame for the next fault, so reading the parent's frame after
// a child visit returns another page's entries on a small buffer, and
// asking ShardedPool for a page from inside the callback deadlocks the
// shard.
type query struct {
	pt  *PagedTree
	aq  *obs.ActiveQuery
	rep *CorruptionReport // non-nil: record failed reads here and go on

	// Window search and leaf scan.
	window geom.Rect
	depth  int          // level of the node scanFrame is about to read
	leaf   bool         // whether the node scanFrame read last is a leaf
	items  []rtree.Item // leaf entries matched so far
	kids   [][]int      // kids[d]: matching children of the level-d node on the current path

	// Nearest.
	frontier rtree.Frontier[pageRef]
	node     pageRef          // the node pushFrame is about to read
	found    []rtree.Neighbor // BestFirst's output buffer

	// scanFrame, pushFrame and expandNode as func values, bound once per
	// query value: a func passed through the PagePool interface escapes,
	// so binding them per visit would cost an allocation per visit.
	scan   func(frame []byte)
	push   func(frame []byte)
	expand func(n pageRef) error
}

// getQuery takes a query from the recycling pool; putQuery returns it.
func (pt *PagedTree) getQuery() *query {
	q, _ := pt.queries.Get().(*query)
	if q == nil {
		q = &query{pt: pt} //lint:allow hotalloc scratch: allocated when the recycling pool is empty, not per query
		q.scan, q.push, q.expand = q.scanFrame, q.pushFrame, q.expandNode
	}
	return q
}

func (pt *PagedTree) putQuery(q *query) {
	q.aq, q.rep = nil, nil
	pt.queries.Put(q)
}

// record opens the query's flight record; finish closes it.
func (q *query) record(name string) { q.aq = q.pt.fr.Begin(name) }

func (q *query) finish(results int) {
	q.aq.SetResults(results)
	q.aq.End()
}

// owned returns the caller's copy of a query's scratch results — the one
// allocation a steady-state query makes. No results is nil.
func owned[T any](scratch []T) []T {
	if len(scratch) == 0 {
		return nil
	}
	return slices.Clone(scratch)
}

// SearchWindow reports every stored item intersecting w, reading node
// pages through the buffer pool in DFS order (the order a real R-tree
// search issues page requests).
func (pt *PagedTree) SearchWindow(w geom.Rect) ([]rtree.Item, error) {
	return pt.searchWindow(w, nil)
}

// SearchPoint is SearchWindow for a degenerate point query.
func (pt *PagedTree) SearchPoint(p geom.Point) ([]rtree.Item, error) {
	return pt.searchWindow(geom.PointRect(p), nil)
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
func (pt *PagedTree) SearchWindowDegraded(w geom.Rect) ([]rtree.Item, *CorruptionReport) {
	//lint:allow hotalloc the report is the degraded search's second result
	rep := &CorruptionReport{}
	out, _ := pt.searchWindow(w, rep) // with a report, faults are recorded there and never returned
	return out, rep
}

// SearchPointDegraded is SearchWindowDegraded for a point query.
func (pt *PagedTree) SearchPointDegraded(p geom.Point) ([]rtree.Item, *CorruptionReport) {
	return pt.SearchWindowDegraded(geom.PointRect(p))
}

// searchWindow is the one window search. What a failed read does depends
// on rep: nil fails the whole query fast; a report records the fault,
// skips that subtree and lets the search go on (graceful degradation).
func (pt *PagedTree) searchWindow(w geom.Rect, rep *CorruptionReport) ([]rtree.Item, error) {
	q := pt.getQuery()
	defer pt.putQuery(q)
	q.record("window")
	q.rep, q.window, q.items = rep, w, q.items[:0]
	err := q.search(0, 0)
	out := owned(q.items)
	q.finish(len(out))
	return out, err
}

// visit reads the node on page (at the given tree level) through
// scanFrame. Every read is attributed to the flight recorder, failed ones
// included.
func (q *query) visit(page, depth int) error {
	for depth >= len(q.kids) {
		q.kids = append(q.kids, nil) //lint:allow hotalloc scratch: grows to the tree height once per recycled query value
	}
	q.depth, q.kids[depth] = depth, q.kids[depth][:0]
	info, err := q.pt.pool.View(page, q.scan)
	q.aq.Access(depth, info.Hit, info.WriteBacks)
	return err
}

// scanFrame is visit's View callback: the entries intersecting q.window
// go to q.items (a leaf's) or q.kids[q.depth] (an internal node's).
func (q *query) scanFrame(frame []byte) {
	q.leaf = pageIsLeaf(frame)
	for i, n := 0, pageCount(frame); i < n; i++ {
		r := entryRect(frame, i)
		if !r.Intersects(q.window) {
			continue
		}
		if q.leaf {
			//lint:allow hotalloc scratch: grows to the largest result once per recycled query value
			q.items = append(q.items, rtree.Item{Rect: r, ID: int64(entryPayload(frame, i))})
		} else {
			//lint:allow hotalloc scratch: grows to the fan-out once per recycled query value
			q.kids[q.depth] = append(q.kids[q.depth], int(entryPayload(frame, i)))
		}
	}
}

// search visits the subtree under page in DFS order: the node first,
// then, the frame given back, each matching child in entry order.
func (q *query) search(page, depth int) error {
	if err := q.visit(page, depth); err != nil {
		if q.rep == nil {
			return err
		}
		q.rep.Faults = append(q.rep.Faults, PageFault{Page: page, Err: err})
		return nil
	}
	for _, child := range q.kids[depth] {
		if err := q.search(child, depth+1); err != nil {
			return err
		}
	}
	return nil
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
	q := pt.getQuery()
	defer pt.putQuery(q)
	q.record("nearest")
	found, err := q.frontier.BestFirst(q.found[:0], p, pageRef{}, k, math.Inf(1), q.expand)
	if err == nil {
		q.found = found
	}
	out := owned(found)
	q.finish(len(out))
	return out, err
}

// expandNode is how BestFirst reads node n: its entries go onto the
// frontier inside the View callback, and BestFirst pops only after
// expandNode has returned.
func (q *query) expandNode(n pageRef) error {
	q.node = n
	info, err := q.pt.pool.View(n.page, q.push)
	q.aq.Access(n.depth, info.Hit, info.WriteBacks)
	return err
}

// pushFrame is expandNode's View callback.
func (q *query) pushFrame(frame []byte) {
	leaf := pageIsLeaf(frame)
	for i, n := 0, pageCount(frame); i < n; i++ {
		if r := entryRect(frame, i); leaf {
			q.frontier.PushItem(r, int64(entryPayload(frame, i)))
		} else {
			q.frontier.PushNode(r, pageRef{int(entryPayload(frame, i)), q.node.depth + 1})
		}
	}
}

// everything is the window every valid rectangle intersects.
var everything = geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}

// ScanLeaves visits every stored item by reading the leaf pages
// sequentially through the buffer pool — the sequential-scan access path
// a query optimizer weighs against the index (examples/optimizer). The
// leaf level is the last contiguous page range, so this is one linear
// pass of meta.Levels[last] page reads. visit runs between page reads,
// never while a frame is on loan, so it may itself query the tree.
func (pt *PagedTree) ScanLeaves(visit func(rtree.Item) error) error {
	q := pt.getQuery() // scans are not flight-recorded
	defer pt.putQuery(q)
	q.window = everything
	leafLevel := len(pt.meta.Levels) - 1
	if !pt.meta.LevelOrder {
		return q.scanWalk(0, 0, visit)
	}
	lo, hi := pt.meta.LevelPageRange(leafLevel)
	for page := lo; page < hi; page++ {
		q.items = q.items[:0]
		if err := q.visit(page, leafLevel); err != nil {
			return err
		}
		if !q.leaf {
			return fmt.Errorf("storage: page %d in leaf range is not a leaf", page)
		}
		for _, it := range q.items {
			if err := visit(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanWalk visits every item of a non-level-order tree by DFS: the leaf
// pages are scattered through the file, so the scan pays the same page
// reads a full-window search would (through the pool, each miss one
// counted access).
func (q *query) scanWalk(page, depth int, visit func(rtree.Item) error) error {
	q.items = q.items[:0]
	if err := q.visit(page, depth); err != nil {
		return err
	}
	for _, it := range q.items { // a leaf's entries; none for an internal node
		if err := visit(it); err != nil {
			return err
		}
	}
	for _, child := range q.kids[depth] { // an internal node's children; none for a leaf
		if err := q.scanWalk(child, depth+1, visit); err != nil {
			return err
		}
	}
	return nil
}
