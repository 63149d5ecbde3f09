package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Write-ahead log for the buffered update path.
//
// The WAL turns a batch of dirty pages plus the new tree catalog into one
// atomic unit: every page image and a commit marker are appended to a
// dedicated log device, made durable in a single group-commit fsync, and
// only then written back to the page file. A crash at any point leaves
// either no trace of the batch (commit horizon not advanced — the tree is
// exactly its pre-batch self) or a committed batch that Recover replays
// idempotently until the page file and catalog match the post-batch tree.
// There is no interleaving that yields a hybrid.
//
// The log device is an ordinary DiskManager whose page size is the data
// page size plus a fixed frame header, so the whole fault harness
// (FaultManager crash points, torn writes, transient errors) applies to
// log writes exactly as it does to page writes. Record framing
// (little endian, one record per log block):
//
//	0:4   magic "WALR"
//	4:8   kind (1 = page image, 2 = batch commit)
//	8:16  sequence number (strictly increasing by 1 across the log)
//	16:24 batch ID (strictly increasing across batches)
//	24:28 page number (images) / image count of the batch (commits)
//	28:32 payload length (images: the data page size; commits: catalog length)
//	32:36 CRC-32C of the block with this field zeroed
//	36:40 reserved
//	40:   payload
//
// The commit point is the log device's WriteMeta: FileManager syncs all
// record blocks before rewriting its header (the same ordering machinery
// Flush/WriteMeta give the page file), and the WAL's meta blob carries the
// committed-sequence horizon plus the checkpoint watermark:
//
//	0:4   magic "WALM"
//	4:8   format version (1)
//	8:16  committed sequence (records beyond it are torn or uncommitted)
//	16:24 applied batch watermark (batches at or below it are checkpointed)
//	24:28 CRC-32C of the first 24 bytes
//
// Recovery scans the record blocks from 0, stops at the first torn,
// corrupt, or non-contiguous block, keeps only records within the
// committed horizon, replays complete batches above the watermark in
// order (pages, then catalog — the page file's own WriteMeta ordering
// keeps the catalog from ever being durably ahead of the data), then
// checkpoints, which also truncates the torn tail: the write position
// returns to block 0 and the dead records are overwritten.
const (
	walRecordMagic   = uint32(0x524C4157) // "WALR"
	walMetaMagic     = uint32(0x4D4C4157) // "WALM"
	walFormatVersion = 1
	walFrameSize     = 40
	walMetaSize      = 28
	walCRCOffset     = 32

	walKindImage  = uint32(1)
	walKindCommit = uint32(2)
)

// WALFrameOverhead is the per-record framing cost: a WAL device must have
// a page size of at least the data page size plus this many bytes.
const WALFrameOverhead = walFrameSize

// WALPath returns the conventional log path for a page file: the page
// file's path with ".wal" appended.
func WALPath(pagePath string) string { return pagePath + ".wal" }

// PageImage is one page's post-batch contents, the unit a batch logs and
// writes back.
type PageImage struct {
	Page int
	Data []byte
}

// WAL is a write-ahead log over a dedicated DiskManager. It is not safe
// for concurrent use (neither are the managers it writes to).
type WAL struct {
	dev          DiskManager
	dataPageSize int

	nextSeq      uint64 // sequence number of the next record appended
	committedSeq uint64 // durable horizon: records beyond it are not committed
	appliedBatch uint64 // checkpoint watermark: batches <= it are in the page file
	nextBatch    uint64 // batch ID of the next AppendBatch
	writeBlock   int    // device block the next record lands in

	batchesSinceCheckpoint int
	metrics                *Metrics

	// frame is the one buffer AppendBatch encodes every record in (the
	// device copies each block it is handed); metaBlock the same for the
	// meta blob.
	frame     []byte
	metaBlock [walMetaSize]byte
}

// CreateWAL initializes an empty log on dev for pages of dataPageSize
// bytes. dev must be fresh (no pages) and its page size must be at least
// dataPageSize + WALFrameOverhead.
func CreateWAL(dev DiskManager, dataPageSize int) (*WAL, error) {
	if err := checkWALDevice(dev, dataPageSize); err != nil {
		return nil, err
	}
	if dev.NumPages() != 0 {
		return nil, fmt.Errorf("storage: CreateWAL on a device with %d existing pages", dev.NumPages())
	}
	w := &WAL{
		dev:          dev,
		dataPageSize: dataPageSize,
		nextSeq:      1,
		nextBatch:    1,
	}
	if err := w.writeWALMeta(); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenWAL opens an existing log on dev. A missing or corrupt meta blob is
// tolerated — the log is then treated as holding no committed records —
// so reopening after any crash always succeeds; the damage shows up in
// the RecoveryReport instead.
func OpenWAL(dev DiskManager, dataPageSize int) (*WAL, error) {
	if err := checkWALDevice(dev, dataPageSize); err != nil {
		return nil, err
	}
	w := &WAL{dev: dev, dataPageSize: dataPageSize}
	meta, metaOK := w.readWALMeta()
	if metaOK {
		w.committedSeq = meta.committedSeq
		w.appliedBatch = meta.appliedBatch
	}
	s := w.scan()
	// Resume strictly from the committed prefix. Records beyond the
	// horizon are uncommitted debris: the write position returns to the
	// end of the prefix to overwrite them, so their sequence numbers must
	// not leak into nextSeq — a committed batch appended after a seq gap
	// would be unreadable to a later scan (which stops at the first
	// non-contiguous record) and silently lost.
	w.nextSeq = s.lastCommittedSeq + 1
	w.nextBatch = w.appliedBatch + 1
	if s.committedBlocks > 0 {
		if last := s.records[s.committedBlocks-1].batch; last >= w.nextBatch {
			w.nextBatch = last + 1
		}
	}
	w.writeBlock = s.committedBlocks
	return w, nil
}

func checkWALDevice(dev DiskManager, dataPageSize int) error {
	if dataPageSize < MinPageSize {
		return fmt.Errorf("storage: WAL data page size %d < minimum %d", dataPageSize, MinPageSize)
	}
	if dev.PageSize() < dataPageSize+walFrameSize {
		return fmt.Errorf("storage: WAL device page size %d < data page size %d + frame %d",
			dev.PageSize(), dataPageSize, walFrameSize)
	}
	return nil
}

// SetMetrics attaches an obs mirror for WAL events; nil detaches.
func (w *WAL) SetMetrics(m *Metrics) { w.metrics = m }

// AppliedBatch returns the checkpoint watermark: the highest batch ID
// known to be fully in the page file.
func (w *WAL) AppliedBatch() uint64 { return w.appliedBatch }

// LogBlocks returns the current length of the live log in blocks (the
// write position). Checkpointing a fully applied log resets it to zero.
func (w *WAL) LogBlocks() int { return w.writeBlock }

// walMeta is the decoded meta blob.
type walMeta struct {
	committedSeq uint64
	appliedBatch uint64
}

func (w *WAL) writeWALMeta() error {
	buf := w.metaBlock[:]
	binary.LittleEndian.PutUint32(buf[0:4], walMetaMagic)
	binary.LittleEndian.PutUint32(buf[4:8], walFormatVersion)
	binary.LittleEndian.PutUint64(buf[8:16], w.committedSeq)
	binary.LittleEndian.PutUint64(buf[16:24], w.appliedBatch)
	binary.LittleEndian.PutUint32(buf[24:28], crc32.Checksum(buf[:24], castagnoli))
	if err := w.dev.WriteMeta(buf); err != nil {
		return fmt.Errorf("storage: WAL meta write: %w", err)
	}
	return nil
}

// readWALMeta returns the decoded meta and whether it was intact.
func (w *WAL) readWALMeta() (walMeta, bool) {
	buf, err := w.dev.ReadMeta()
	if err != nil || len(buf) < walMetaSize {
		return walMeta{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != walMetaMagic {
		return walMeta{}, false
	}
	if binary.LittleEndian.Uint32(buf[4:8]) != walFormatVersion {
		return walMeta{}, false
	}
	if binary.LittleEndian.Uint32(buf[24:28]) != crc32.Checksum(buf[:24], castagnoli) {
		return walMeta{}, false
	}
	return walMeta{
		committedSeq: binary.LittleEndian.Uint64(buf[8:16]),
		appliedBatch: binary.LittleEndian.Uint64(buf[16:24]),
	}, true
}

// walRecord is one decoded log record.
type walRecord struct {
	seq     uint64
	batch   uint64
	kind    uint32
	pageNo  int    // images
	count   int    // commits: image count of the batch
	payload []byte // image bytes or catalog bytes (copied)
}

func (w *WAL) encodeRecord(buf []byte, kind uint32, seq, batch uint64, pageNo int, payload []byte) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], walRecordMagic)
	binary.LittleEndian.PutUint32(buf[4:8], kind)
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	binary.LittleEndian.PutUint64(buf[16:24], batch)
	binary.LittleEndian.PutUint32(buf[24:28], uint32(pageNo))
	binary.LittleEndian.PutUint32(buf[28:32], uint32(len(payload)))
	copy(buf[walFrameSize:], payload)
	binary.LittleEndian.PutUint32(buf[walCRCOffset:], walBlockChecksum(buf))
}

// walBlockChecksum computes the CRC-32C of a log block with the checksum
// field treated as zero.
func walBlockChecksum(buf []byte) uint32 {
	crc := crc32.Update(0, castagnoli, buf[:walCRCOffset])
	crc = crc32.Update(crc, castagnoli, zeroChecksum[:])
	return crc32.Update(crc, castagnoli, buf[walCRCOffset+4:])
}

// decodeRecord parses one log block; ok is false for torn, corrupt, or
// foreign blocks.
func (w *WAL) decodeRecord(buf []byte) (walRecord, bool) {
	if len(buf) < walFrameSize {
		return walRecord{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != walRecordMagic {
		return walRecord{}, false
	}
	if binary.LittleEndian.Uint32(buf[walCRCOffset:]) != walBlockChecksum(buf) {
		return walRecord{}, false
	}
	r := walRecord{
		seq:   binary.LittleEndian.Uint64(buf[8:16]),
		batch: binary.LittleEndian.Uint64(buf[16:24]),
		kind:  binary.LittleEndian.Uint32(buf[4:8]),
	}
	n := int(binary.LittleEndian.Uint32(buf[24:28]))
	plen := int(binary.LittleEndian.Uint32(buf[28:32]))
	if plen < 0 || walFrameSize+plen > len(buf) {
		return walRecord{}, false
	}
	switch r.kind {
	case walKindImage:
		if plen != w.dataPageSize || n < 0 {
			return walRecord{}, false
		}
		r.pageNo = n
	case walKindCommit:
		if n < 0 {
			return walRecord{}, false
		}
		r.count = n
	default:
		return walRecord{}, false
	}
	r.payload = append([]byte(nil), buf[walFrameSize:walFrameSize+plen]...)
	return r, true
}

// walScan is the result of reading the log from block 0.
type walScan struct {
	records          []walRecord // valid, contiguous prefix
	committedBlocks  int         // blocks holding records within the commit horizon
	lastCommittedSeq uint64      // seq of the last record within the horizon, 0 if none
	tornAt           int         // block index scanning stopped at, or -1 if the whole device parsed
	discarded        int         // valid records beyond the commit horizon (uncommitted debris)
}

// scan reads the valid record prefix of the device: blocks parse, CRCs
// hold, and sequence numbers increase by exactly 1. Scanning stops at the
// first violation; everything after is a torn tail or dead space.
func (w *WAL) scan() walScan {
	s := walScan{tornAt: -1}
	buf := make([]byte, w.dev.PageSize())
	var prevSeq uint64
	for block := 0; block < w.dev.NumPages(); block++ {
		if err := w.dev.ReadPage(block, buf); err != nil {
			s.tornAt = block
			break
		}
		r, ok := w.decodeRecord(buf)
		if !ok || (prevSeq != 0 && r.seq != prevSeq+1) {
			s.tornAt = block
			break
		}
		prevSeq = r.seq
		s.records = append(s.records, r)
		if r.seq <= w.committedSeq {
			s.committedBlocks = block + 1
			s.lastCommittedSeq = r.seq
		} else {
			s.discarded++
		}
	}
	return s
}

// AppendBatch logs a batch — every post-batch page image plus the
// post-batch catalog — and commits it durably in one meta write (the
// group-commit fsync: the device syncs all record blocks before its
// header advances the commit horizon). On success the batch will survive
// any crash; nothing may be written to the page file before this returns.
// On failure the log's in-memory position is rolled back so a retry (or
// the next batch) overwrites the partial records, and the commit horizon
// is untouched: the batch never happened.
func (w *WAL) AppendBatch(pages []PageImage, treeMeta []byte) (batchID uint64, err error) {
	if len(pages) == 0 {
		return 0, fmt.Errorf("storage: WAL batch with no pages")
	}
	if len(treeMeta) > w.dev.PageSize()-walFrameSize {
		return 0, fmt.Errorf("storage: WAL batch catalog %d bytes > payload capacity %d",
			len(treeMeta), w.dev.PageSize()-walFrameSize)
	}
	startSeq, startBlock := w.nextSeq, w.writeBlock
	batchID = w.nextBatch
	if len(w.frame) != w.dev.PageSize() {
		w.frame = make([]byte, w.dev.PageSize())
	}
	buf := w.frame
	for _, img := range pages {
		if len(img.Data) != w.dataPageSize {
			w.nextSeq, w.writeBlock = startSeq, startBlock
			return 0, fmt.Errorf("storage: WAL image for page %d is %d bytes, want %d",
				img.Page, len(img.Data), w.dataPageSize)
		}
		w.encodeRecord(buf, walKindImage, w.nextSeq, batchID, img.Page, img.Data)
		if err := w.dev.WritePage(w.writeBlock, buf); err != nil {
			w.nextSeq, w.writeBlock = startSeq, startBlock
			return 0, fmt.Errorf("storage: WAL append: %w", err)
		}
		w.nextSeq++
		w.writeBlock++
		w.metrics.noteWALRecord()
	}
	w.encodeRecord(buf, walKindCommit, w.nextSeq, batchID, len(pages), treeMeta)
	if err := w.dev.WritePage(w.writeBlock, buf); err != nil {
		w.nextSeq, w.writeBlock = startSeq, startBlock
		return 0, fmt.Errorf("storage: WAL append (commit record): %w", err)
	}
	w.nextSeq++
	w.writeBlock++
	w.metrics.noteWALRecord()

	// The commit point: record data is synced, then the horizon advances.
	commitSeq := w.nextSeq - 1
	prev := w.committedSeq
	w.committedSeq = commitSeq
	if err := w.writeWALMeta(); err != nil {
		w.committedSeq = prev
		w.nextSeq, w.writeBlock = startSeq, startBlock
		return 0, err
	}
	w.nextBatch = batchID + 1
	w.batchesSinceCheckpoint++
	w.metrics.noteWALCommit()
	return batchID, nil
}

// Checkpoint advances the applied watermark to batch, recording that
// every batch up to and including it is durably in the page file. Call it
// only after the page file's data and catalog for those batches are
// synced (syncManager on the page file's manager). When the whole log is
// applied, the write position returns to block 0, truncating any torn
// tail: dead records are overwritten by the next batch.
func (w *WAL) Checkpoint(batch uint64) error {
	if batch < w.appliedBatch {
		return fmt.Errorf("storage: checkpoint watermark moving backwards (%d < %d)", batch, w.appliedBatch)
	}
	prev := w.appliedBatch
	w.appliedBatch = batch
	if batch >= w.nextBatch-1 {
		// Everything committed is applied: the live log is empty.
		w.writeBlock = 0
	}
	if err := w.writeWALMeta(); err != nil {
		w.appliedBatch = prev
		return err
	}
	w.batchesSinceCheckpoint = 0
	w.metrics.noteWALCheckpoint()
	return nil
}

// CheckpointPolicy bounds recovery replay length: how many committed
// batches (or log blocks) may accumulate before the update path must
// checkpoint. The zero value checkpoints after every batch — shortest
// replay, one extra meta write per batch.
type CheckpointPolicy struct {
	// EveryBatches checkpoints once this many batches committed since the
	// last checkpoint. 0 means every batch.
	EveryBatches int
	// MaxLogBlocks forces a checkpoint once the live log exceeds this
	// many blocks, regardless of batch count. 0 disables the bound.
	MaxLogBlocks int
}

// Due reports whether the policy calls for a checkpoint now.
func (p CheckpointPolicy) Due(w *WAL) bool {
	if w.batchesSinceCheckpoint == 0 {
		return false
	}
	if p.EveryBatches <= 0 || w.batchesSinceCheckpoint >= p.EveryBatches {
		return true
	}
	return p.MaxLogBlocks > 0 && w.writeBlock > p.MaxLogBlocks
}

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	MetaIntact       bool // the WAL meta blob decoded and passed its CRC
	ScannedRecords   int  // valid records in the contiguous prefix
	TornAtBlock      int  // block index scanning stopped at, -1 if none
	DiscardedRecords int  // records beyond the commit horizon (uncommitted tail)
	CommittedBatches int  // complete batches within the horizon
	PendingBatches   int  // committed batches above the watermark (needed replay)
	ReplayedBatches  int  // batches actually replayed into the page file
	ReplayedPages    int  // page images written during replay
	IncompleteCommit bool // the horizon covers records the scan could not produce (log damage)
}

// NeededRecovery reports whether the log held committed work the page
// file did not yet have.
func (r RecoveryReport) NeededRecovery() bool { return r.PendingBatches > 0 }

// String renders a one-line summary.
func (r RecoveryReport) String() string {
	switch {
	case r.IncompleteCommit:
		return fmt.Sprintf("damaged: commit horizon covers unreadable records (%d replayed, %d discarded)",
			r.ReplayedBatches, r.DiscardedRecords)
	case r.ReplayedBatches > 0:
		return fmt.Sprintf("recovered: replayed %d of %d committed batches (%d pages), discarded %d uncommitted records",
			r.ReplayedBatches, r.CommittedBatches, r.ReplayedPages, r.DiscardedRecords)
	case r.PendingBatches > 0:
		return fmt.Sprintf("pending: %d committed batches await replay, discarded %d uncommitted records",
			r.PendingBatches, r.DiscardedRecords)
	case r.DiscardedRecords > 0:
		return fmt.Sprintf("clean: no pending batches, discarded %d uncommitted records", r.DiscardedRecords)
	default:
		return "clean: log empty or fully applied"
	}
}

// InspectWAL reports what Recover would do without writing anything: the
// committed-but-unapplied batches, torn tails, and uncommitted debris.
func InspectWAL(w *WAL) RecoveryReport {
	rep, _ := w.analyze()
	return rep
}

// analyze scans the log and groups committed records into complete
// batches above the watermark, in order.
func (w *WAL) analyze() (RecoveryReport, []walReplayBatch) {
	rep := RecoveryReport{TornAtBlock: -1}
	_, rep.MetaIntact = w.readWALMeta()
	s := w.scan()
	rep.ScannedRecords = len(s.records)
	rep.TornAtBlock = s.tornAt
	rep.DiscardedRecords = s.discarded

	// Group the committed prefix into batches. Records of one batch are
	// contiguous (appends are single-threaded), ending in its commit
	// record; the horizon never splits a batch, but a damaged log can
	// leave the horizon pointing past what parsed — flag it.
	var batches []walReplayBatch
	var cur walReplayBatch
	maxCommitted := uint64(0)
	for _, r := range s.records {
		if r.seq > w.committedSeq {
			break
		}
		maxCommitted = r.seq
		switch r.kind {
		case walKindImage:
			if cur.id != 0 && cur.id != r.batch {
				cur = walReplayBatch{} // interleaved batches: abandoned append debris
			}
			cur.id = r.batch
			cur.images = append(cur.images, PageImage{Page: r.pageNo, Data: r.payload})
		case walKindCommit:
			if cur.id == r.batch && len(cur.images) == r.count {
				cur.meta = r.payload
				batches = append(batches, cur)
				rep.CommittedBatches++
			}
			cur = walReplayBatch{}
		}
	}
	if maxCommitted < w.committedSeq {
		rep.IncompleteCommit = true
	}
	var pending []walReplayBatch
	for _, b := range batches {
		if b.id > w.appliedBatch {
			pending = append(pending, b)
		}
	}
	rep.PendingBatches = len(pending)
	return rep, pending
}

type walReplayBatch struct {
	id     uint64
	images []PageImage
	meta   []byte
}

// Recover replays every committed-but-unapplied batch from w into dm:
// for each batch in commit order, all page images, then the batch's
// catalog (dm's own WriteMeta ordering syncs the pages first). Replay is
// idempotent — rerunning after a crash mid-recovery writes the same
// bytes — and total: a junk, truncated, or bit-flipped log yields a
// report, not a panic. After a successful replay the page file is synced
// and the log checkpointed, truncating torn tails and uncommitted
// debris.
func Recover(dm DiskManager, w *WAL) (RecoveryReport, error) {
	rep, pending := w.analyze()
	// A redo batch only touches pages the file already has, or extends
	// it — by at most one page per logged image. A page number beyond
	// that bound cannot have come from AppendBatch (which logs writes
	// that actually happened); it marks a corrupt record whose CRC
	// happens to hold, and replaying it would grow the file (and the
	// heap) without bound. Refuse cleanly instead.
	maxPage := dm.NumPages()
	for _, b := range pending {
		maxPage += len(b.images)
	}
	for _, b := range pending {
		for _, img := range b.images {
			if img.Page >= maxPage {
				return rep, fmt.Errorf("storage: recovery of batch %d: image for page %d beyond reachable span %d",
					b.id, img.Page, maxPage)
			}
		}
	}
	for _, b := range pending {
		for _, img := range b.images {
			if err := dm.WritePage(img.Page, img.Data); err != nil {
				return rep, fmt.Errorf("storage: recovery of batch %d, page %d: %w", b.id, img.Page, err)
			}
			rep.ReplayedPages++
			w.metrics.noteWALReplayedPage()
		}
		if err := dm.WriteMeta(b.meta); err != nil {
			return rep, fmt.Errorf("storage: recovery of batch %d catalog: %w", b.id, err)
		}
		rep.ReplayedBatches++
		w.metrics.noteWALReplayedBatch()
	}
	if rep.ReplayedBatches > 0 {
		if err := syncManager(dm); err != nil {
			return rep, fmt.Errorf("storage: syncing page file after recovery: %w", err)
		}
	}
	// Checkpoint even when nothing replayed: this durably discards torn
	// tails and uncommitted debris so the next append overwrites them.
	last := w.appliedBatch
	if n := len(pending); n > 0 {
		last = pending[n-1].id
	} else if w.nextBatch > 1 {
		last = w.nextBatch - 1
	}
	if err := w.Checkpoint(last); err != nil {
		return rep, err
	}
	return rep, nil
}

// syncManager flushes a manager to stable storage when it supports
// syncing (FileManager does; MemoryManager needs none). Wrapping
// managers forward it to what they wrap.
func syncManager(dm DiskManager) error {
	if s, ok := dm.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}
