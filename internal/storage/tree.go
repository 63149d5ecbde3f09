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
	return appendMetaV2(make([]byte, 0, 40+4*len(m.Levels)+4*len(m.Free)), m)
}

// appendMetaV2 appends the v2 catalog of m to buf: the update path
// encodes every commit's catalog into one reused buffer.
func appendMetaV2(buf []byte, m TreeMeta) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, metaMagicV2)
	buf = le.AppendUint32(buf, uint32(m.MaxEntries))
	buf = le.AppendUint32(buf, uint32(m.MinEntries))
	buf = le.AppendUint32(buf, uint32(m.Split))
	buf = le.AppendUint64(buf, uint64(m.Items))
	var flags uint32
	if m.LevelOrder {
		flags |= metaFlagLevelOrder
	}
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint32(buf, uint32(m.PageSpan()))
	buf = le.AppendUint32(buf, uint32(len(m.Levels)))
	buf = le.AppendUint32(buf, uint32(len(m.Free)))
	for _, c := range m.Levels {
		buf = le.AppendUint32(buf, uint32(c))
	}
	for _, p := range m.Free {
		buf = le.AppendUint32(buf, uint32(p))
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
	return m, checkFree(m)
}

// checkFree rejects a free list an update could not have written: a page
// outside [1, PageSpan()) (page 0 is the root), a page listed twice, or
// more free pages than the span leaves beside the live ones. A free
// entry naming a live page while the counts agree passes here; only
// walkTree's "references free page" check finds it.
func checkFree(m TreeMeta) error {
	span := m.PageSpan()
	listed := make(map[int]bool, len(m.Free))
	for _, p := range m.Free {
		switch {
		case p < 1 || p >= span:
			return fmt.Errorf("storage: tree metadata lists free page %d outside [1,%d)", p, span)
		case listed[p]:
			return fmt.Errorf("storage: tree metadata lists free page %d twice", p)
		}
		listed[p] = true
	}
	if live := m.NumPages(); live+len(m.Free) > span {
		return fmt.Errorf("storage: tree metadata inconsistent (%d live and %d free pages in a span of %d)",
			live, len(m.Free), span)
	}
	return nil
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
		_ = fm.closeFile() // the save failure is the one worth reporting
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
	meta, err := openMeta(dm)
	if err != nil {
		return nil, err
	}
	nodes := make([]rtree.NodeData, 0, meta.NumPages())
	if err := walkTree(dm, meta, len(meta.Levels), func(_, depth int, nd *rtree.NodeData) error {
		nd.Level = depth // a page does not store its node's level
		nodes = append(nodes, *nd)
		return nil
	}, nil); err != nil {
		return nil, err
	}
	if len(nodes) != meta.NumPages() {
		return nil, fmt.Errorf("storage: catalog claims %d live pages but the root reaches %d",
			meta.NumPages(), len(nodes))
	}
	return rtree.ImportNodes(rtree.Params{
		MaxEntries: meta.MaxEntries,
		MinEntries: meta.MinEntries,
		Split:      meta.Split,
	}, nodes)
}

// errEmptyNode is the fault of a non-root node with no entries. Only the
// root of an empty tree may be empty: a kNN search takes every child it
// reads for a non-empty subtree (rtree.Frontier's sibling bound).
func errEmptyNode(page int) error {
	return fmt.Errorf("storage: page %d is a non-root node with no entries", page)
}

// walkTree is the one walk of a stored tree. It goes from the root,
// depth first in entry order, reading pages through dm, and calls visit
// for each page it reaches: with the decoded node above depth stop, and
// with nil at depth stop, where it neither reads the page nor follows its
// children. An updated tree's live pages lie among free ones that hold
// stale bytes, so only what the root reaches is read, and before it
// follows a child the walk checks that the child lies inside the file
// span, is not a free page, has not been reached before (a cycle or a
// shared child) and is not deeper than the catalog's levels, and it
// refuses a non-root node with no entries. A failed read, decode or
// check goes to fault, and the walk goes on past that page or child;
// with fault nil it stops and returns the error. An error from visit
// always stops it.
func walkTree(dm DiskManager, meta TreeMeta, stop int,
	visit func(page, depth int, nd *rtree.NodeData) error, fault func(PageFault)) error {
	fail := func(page int, err error) error {
		if fault == nil {
			return err
		}
		fault(PageFault{Page: page, Err: err})
		return nil
	}
	span, levels := meta.PageSpan(), len(meta.Levels)
	free := make(map[int]bool, len(meta.Free))
	for _, p := range meta.Free {
		free[p] = true
	}
	seen := map[int]bool{0: true}
	buf := make([]byte, dm.PageSize())

	var walk func(page, depth int) error
	walk = func(page, depth int) error {
		if depth == stop {
			return visit(page, depth, nil)
		}
		if err := dm.ReadPage(page, buf); err != nil {
			return fail(page, err)
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			return fail(page, err)
		}
		if depth > 0 && len(nd.Rects) == 0 {
			return fail(page, errEmptyNode(page))
		}
		if err := visit(page, depth, &nd); err != nil {
			return err
		}
		for i, child := range nd.Children {
			var bad error
			switch {
			case child < 0 || child >= span:
				bad = fmt.Errorf("storage: page %d entry %d references out-of-range child page %d (file spans %d pages)",
					page, i, child, span)
			case free[child]:
				bad = fmt.Errorf("storage: page %d entry %d references free page %d", page, i, child)
			case seen[child]:
				bad = fmt.Errorf("storage: page %d entry %d references page %d, reached twice (cycle or shared child)",
					page, i, child)
			case depth+1 >= levels:
				bad = fmt.Errorf("storage: page %d entry %d references page %d below the catalog's %d levels",
					page, i, child, levels)
			}
			if bad != nil {
				if err := fail(page, bad); err != nil {
					return err
				}
				continue
			}
			seen[child] = true
			if err := walk(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, 0)
}

// PagedTree executes R-tree queries directly against stored pages through
// an LRU buffer pool: every pool miss is one counted disk access. It is
// the end-to-end realization of the system the paper models — compare its
// measured misses per query with core.Predictor.DiskAccesses.
type PagedTree struct {
	dm   DiskManager
	pool buffer.PagePool
	meta TreeMeta

	// index holds every page's group MBRs, which a buffer hit scans
	// before the entries (pageindex.go).
	index pageIndex

	// fr, when attached, records per-query access attribution (nil — the
	// default — is the disabled recorder; the query paths call it
	// unconditionally with zero overhead).
	fr *obs.FlightRecorder

	// metrics, when attached, is the pool's obs mirror, which the tree
	// feeds the per-level series the pool cannot: each read is counted at
	// the level of the node it reads (nil — the default — disables it).
	metrics *buffer.Metrics

	// queries recycles per-query scratch (*query) between queries, so a
	// steady-state query allocates its result slice and nothing else.
	queries sync.Pool

	// Update-path state, nil/zero on read-only trees (OpenPagedTree).
	wal       *WAL             // write-ahead log; non-nil enables Insert/Delete
	wpool     *buffer.Pool     // pool, as the type that takes writes; set with wal
	upd       *updater         // the one staging area, reset by every beginUpdate
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
// percent. A buffer of fewer than one page is an error.
func OpenPagedTreeWith(dm DiskManager, bufferPages int, policy string, shards int) (*PagedTree, error) {
	if err := checkBufferPages(bufferPages); err != nil {
		return nil, err
	}
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
		dm:    dm,
		pool:  pool,
		meta:  meta,
		index: newPageIndex(meta.PageSpan(), dm.PageSize()),
	}, nil
}

// checkBufferPages rejects a buffer that cannot hold one page: every
// pool needs a frame to read into.
func checkBufferPages(bufferPages int) error {
	if bufferPages < 1 {
		return fmt.Errorf("storage: buffer of %d pages, need at least 1", bufferPages)
	}
	return nil
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

// Meta returns a copy of the tree catalog: the update path reuses the
// Levels and Free slices of pt.meta (update.go).
func (pt *PagedTree) Meta() TreeMeta {
	m := pt.meta
	m.Levels = slices.Clone(m.Levels)
	m.Free = nil
	if len(pt.meta.Free) > 0 {
		m.Free = slices.Clone(pt.meta.Free)
	}
	return m
}

// Pool exposes the underlying buffer pool (for statistics and pinning).
func (pt *PagedTree) Pool() buffer.PagePool { return pt.pool }

// SetFlightRecorder attaches (or with nil detaches) the query-path
// flight recorder. Recording only observes the pool's per-access
// attribution — it never changes which pages a query reads or what it
// returns.
func (pt *PagedTree) SetFlightRecorder(fr *obs.FlightRecorder) { pt.fr = fr }

// SetMetrics attaches (or with nil detaches) the buffer's obs mirror.
// The pool counts its hits and misses into m; the tree, which knows the
// level of every node it reads, counts each of those reads once more
// into m's per-level series, registered here for the tree's height and
// again by every commit that changes it. Every read of a query, a scan,
// an update or a pin is counted, so the levels sum to the pool's hits
// plus misses; the one exception is a child pointer naming a page past
// the file, which the pool rejects uncounted and the levels, like the
// flight recorder, count as a miss. Attach it before PinLevels for the
// pins to be counted.
func (pt *PagedTree) SetMetrics(m *buffer.Metrics) {
	pt.metrics = m.WithLevels(len(pt.meta.Levels))
	pt.pool.SetMetrics(m)
}

// PinLevels pins the top n levels of the tree in the buffer, the policy
// studied in Section 5.5. On a level-order tree level pages are
// contiguous, so this pins pages [0, pages(level<n)); on an updated
// tree it walks from the root to find them. The walk reads the structure
// through the disk manager, not the pool, so the discovery reads do not
// perturb hit/miss accounting — only the Pin loads themselves touch the
// buffer, as in the level-order path.
func (pt *PagedTree) PinLevels(n int) error {
	if n < 0 || n > len(pt.meta.Levels) {
		return fmt.Errorf("storage: pin %d levels of a %d-level tree", n, len(pt.meta.Levels))
	}
	if !pt.meta.LevelOrder {
		if n == 0 {
			return nil
		}
		return walkTree(pt.dm, pt.meta, n-1, func(page, depth int, _ *rtree.NodeData) error {
			return pt.pin(page, depth)
		}, nil)
	}
	for level := 0; level < n; level++ {
		lo, hi := pt.meta.LevelPageRange(level)
		for page := lo; page < hi; page++ {
			if err := pt.pin(page, level); err != nil {
				return err
			}
		}
	}
	return nil
}

// read lends fn the frame of page, a node at the given tree level, and
// whether the pool had it resident (see buffer.PagePool's View), and
// attributes the read: to aq's flight record (nil for a read no query
// records) and to the per-level series. Every read a query or an update
// makes goes through here, failed ones included, so the levels and the
// flight record count each read once. On a poisoned handle (UpdateErr)
// nothing is read: a commit that failed halfway may have left some of
// its pages in the pool and the rest old on disk, a tree that never
// existed.
func (pt *PagedTree) read(page, depth int, aq *obs.ActiveQuery, fn func(frame []byte, hit bool)) error {
	if pt.updateErr != nil {
		return pt.poisoned()
	}
	info, err := pt.pool.View(page, fn)
	aq.Access(depth, info.Hit, info.WriteBacks)
	pt.metrics.Level(depth, info.Hit)
	return err
}

// pin pins page, a node at the given level, and counts the pin into the
// per-level series as the pool counted it: a pin counts no hit, and one
// that read its page counts one miss. Pin does not say whether it read,
// so the miss is the pool's miss count moving — exact while no query
// runs beside PinLevels, which sets up a workload rather than taking
// part in one.
func (pt *PagedTree) pin(page, level int) error {
	var before uint64
	if pt.metrics != nil {
		_, before, _ = pt.pool.Stats()
	}
	err := pt.pool.Pin(page)
	if pt.metrics != nil {
		if _, after, _ := pt.pool.Stats(); after > before {
			pt.metrics.Level(level, false)
		}
	}
	if err != nil {
		return fmt.Errorf("storage: pinning level %d: %w", level, err)
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
// items, matching children into kids, a kNN node's entries into the
// frontier's candidates — and only after View has returned does it ask
// for the next page (or the frontier push the candidates it kept). On a
// hit the scan goes through the page's group MBRs (pt.index); on a fault
// it reads every entry. Both yield the same entries in the same order. A
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
	page   int          // the page scanFrame is about to read
	depth  int          // level of the node scanFrame is about to read
	leaf   bool         // whether the node scanFrame read last is a leaf
	items  []rtree.Item // leaf entries matched so far
	kids   [][]int      // kids[d]: matching children of the level-d node on the current path

	// Nearest.
	frontier rtree.Frontier[pageRef]
	node     pageRef          // the node pushFrame is about to read
	found    []rtree.Neighbor // BestFirst's output buffer
	near     []groupDist      // pushFrame's groups within the bound, nearest first

	// scanFrame, pushFrame and expandNode as func values, bound once per
	// query value: a func passed through the PagePool interface escapes,
	// so binding them per visit would cost an allocation per visit.
	scan   func(frame []byte, hit bool)
	push   func(frame []byte, hit bool)
	expand func(n pageRef) error
}

// getQuery takes a query from the recycling pool; putQuery returns it.
func (pt *PagedTree) getQuery() *query {
	q, _ := pt.queries.Get().(*query)
	if q == nil {
		q = &query{pt: pt}
		q.scan, q.push, q.expand = q.scanFrame, q.pushFrame, q.expandNode
	}
	return q
}

// maxScratchItems bounds every array a recycled query keeps: a
// full-window query would otherwise park its whole result buffer (40 MB
// at a million items) in the recycling pool until the collector clears
// it, and a kNN query for as many items its results and its queue.
const maxScratchItems = 1 << 16

func (pt *PagedTree) putQuery(q *query) {
	q.aq, q.rep = nil, nil
	if cap(q.items) > maxScratchItems {
		q.items = nil
	}
	if cap(q.found) > maxScratchItems {
		q.found = nil
	}
	q.frontier.Recycle(maxScratchItems)
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
// scanFrame.
func (q *query) visit(page, depth int) error {
	for depth >= len(q.kids) {
		q.kids = append(q.kids, nil)
	}
	q.page, q.depth, q.kids[depth] = page, depth, q.kids[depth][:0]
	return q.pt.read(page, depth, q.aq, q.scan)
}

// scanFrame is visit's View callback: the entries intersecting q.window
// go to q.items (a leaf's) or q.kids[q.depth] (an internal node's), in
// entry order. A fault scans every entry. A hit first puts the page's
// group MBRs through the same four tests as scanEntries and scans only
// the entries of the groups that pass: a group's bounds are its entries'
// exact min and max, so a group that fails a test, for a NaN window too,
// holds no entry that passes it.
func (q *query) scanFrame(frame []byte, hit bool) {
	leaf, entries := pageIsLeaf(frame), pageEntries(frame)
	q.leaf = leaf
	if !hit {
		q.scanEntries(entries, leaf)
		return
	}
	w := q.window
	for i, g := range q.pt.index.of(q.page, frame) {
		if !(g.MinX <= w.MaxX) {
			continue
		}
		if !(w.MinX <= g.MaxX) {
			continue
		}
		if !(g.MinY <= w.MaxY) {
			continue
		}
		if !(w.MinY <= g.MaxY) {
			continue
		}
		q.scanEntries(groupEntries(entries, i), leaf)
	}
}

// scanEntries appends the entries of e intersecting q.window to q.items
// (leaf) or q.kids[q.depth]. The window test is geom.Rect.Intersects
// taken apart: the same four comparisons in the same order, each field
// loaded only when the tests before it passed, and each written
// !(a <= b) so that a NaN fails it as it fails Intersects. One if per
// test compiles to a load, a compare and a branch; a single || of the
// four would materialize booleans. The payload is read only for a match.
func (q *query) scanEntries(e []byte, leaf bool) {
	w := q.window
	for ; len(e) >= entrySize; e = e[entrySize:] {
		if !(getFloat(e) <= w.MaxX) {
			continue
		}
		if !(w.MinX <= getFloat(e[16:])) {
			continue
		}
		if !(getFloat(e[8:]) <= w.MaxY) {
			continue
		}
		if !(w.MinY <= getFloat(e[24:])) {
			continue
		}
		if leaf {
			q.items = append(q.items, rtree.Item{Rect: getRect(e), ID: int64(getPayload(e))})
		} else {
			q.kids[q.depth] = append(q.kids[q.depth], int(getPayload(e)))
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
	found, err := q.nearest(p, k)
	out := owned(found)
	q.finish(len(out))
	return out, err
}

// nearest runs Nearest's search on q's frontier and returns the items
// found in q's scratch, nil on error.
func (q *query) nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	found, err := q.frontier.BestFirst(q.found[:0], p, pageRef{}, k, math.Inf(1), q.expand)
	if err == nil {
		q.found = found
	}
	return found, err
}

// expandNode is how BestFirst reads node n: its entries are offered to
// the frontier inside the View callback, and BestFirst queues the ones
// it keeps, and pops, only after expandNode has returned.
func (q *query) expandNode(n pageRef) error {
	q.node = n
	return q.pt.read(n.page, n.depth, q.aq, q.push)
}

// groupDist is one of a page's groups that a kNN hit reads: its index
// and its squared distance from the search point.
type groupDist struct {
	distSq float64
	group  int
}

// pushFrame is expandNode's View callback: it offers the entries of the
// frame to the frontier. A fault offers every entry, in entry order. A
// hit measures the page's groups (pt.index) first and offers the entries
// of those within the frontier's bound, nearest group first, so the
// nearest items and children lower the bound before the farther groups
// are reached; it stops at the first group the bound has dropped below.
// minDistSq only grows from a rectangle to one inside it, in floating
// point too (each subtraction rounds monotonically, and max, the squares
// and the sum are monotone), and the bound only falls while a node is
// offered, so every entry of a group beyond it would have failed Within
// at its own turn. The frontier queues entries by their index, not by
// the order they are offered in, so the order of the groups changes no
// visit and no result. A group at NaN distance is read first: a point at
// infinity makes Inf-Inf of a group edge that an entry inside may not
// share.
func (q *query) pushFrame(frame []byte, hit bool) {
	leaf, entries := pageIsLeaf(frame), pageEntries(frame)
	if !hit {
		q.pushEntries(entries, leaf, 0)
		return
	}
	near := q.near[:0]
	for i, g := range q.pt.index.of(q.node.page, frame) {
		d, ok := q.frontier.Within(g)
		if !ok {
			if !math.IsNaN(d) {
				continue
			}
			d = math.Inf(-1)
		}
		j := len(near)
		near = append(near, groupDist{})
		for ; j > 0 && near[j-1].distSq > d; j-- {
			near[j] = near[j-1]
		}
		near[j] = groupDist{d, i}
	}
	for _, g := range near {
		if !q.frontier.Keeps(g.distSq) {
			break
		}
		q.pushEntries(groupEntries(entries, g.group), leaf, g.group*groupSize)
	}
	q.near = near
}

// pushEntries offers the entries of e, the first of them entry i of the
// node, to the frontier, making its bound test inline so that the
// entries beyond it (most of them) cost no call. A child is offered with
// the entry count its page's index slot holds.
func (q *query) pushEntries(e []byte, leaf bool, i int) {
	depth := q.node.depth + 1
	for ; len(e) >= entrySize; e, i = e[entrySize:], i+1 {
		r := getRect(e)
		d, ok := q.frontier.Within(r)
		if !ok {
			continue
		}
		if payload := getPayload(e); leaf {
			q.frontier.PushItemAt(i, d, r, int64(payload))
		} else {
			child := int(payload)
			q.frontier.PushNodeAt(i, d, r, pageRef{child, depth}, q.pt.index.items(child))
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
