package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
)

// ErrTransient marks an injected or observed I/O error that a retry of
// the same operation may clear (controller hiccup, dropped interrupt,
// transport glitch). ResilientManager retries operations whose error
// chain contains this sentinel; everything else is treated as permanent.
var ErrTransient = errors.New("transient I/O fault")

// ErrCrashed is returned by a FaultManager that has reached a crash
// point: the simulated device is fail-stop and every subsequent
// operation fails until the underlying file is reopened fresh.
var ErrCrashed = errors.New("storage crashed (fail-stop)")

// Transient reports whether err is worth retrying.
func Transient(err error) bool { return errors.Is(err, ErrTransient) }

// FaultStats counts the faults a FaultManager actually injected, so
// tests can assert a plan fired rather than silently not triggering.
type FaultStats struct {
	TransientReads  uint64 // reads failed with ErrTransient
	TransientWrites uint64 // writes failed with ErrTransient
	PermanentReads  uint64 // reads failed on a bad page
	TornWrites      uint64 // writes that persisted only a prefix
	CrashedOps      uint64 // operations rejected after the crash point
}

// FaultManager wraps any DiskManager with a deterministic, seeded,
// programmable fault plan: transient read/write errors on every Nth (or
// a seeded fraction of) accesses, permanently unreadable pages, bit-flip
// corruption of stored pages, torn writes that persist only a prefix of
// the page, and crashes after which the manager goes fail-stop.
//
// It is the storage layer's one model of a crash. A write (WritePage or
// WriteMeta) is pending from when it is issued until the next sync, and
// a later write to the same page (or the catalog) replaces it, as in a
// page cache; a crash decides which pending writes the medium keeps.
// WriteMeta is FileManager's barrier: it syncs before it writes the
// catalog whenever a page write is pending, so everything issued before
// it is durable, and the catalog write itself stays pending until the
// next Sync. Writes reach the inner manager as issued, and a crash
// undoes those it drops from the undo record, whose one cost before a
// crash is a read of each page's synced bytes at its first write after
// a sync.
//
// It is the standing harness for proving robustness claims: wrap the
// real manager, program a plan, and drive the ordinary save/load/query
// paths. All injection is deterministic for a given seed and operation
// sequence, so failures reproduce exactly.
//
// FaultManager is not safe for concurrent use (neither are the managers
// it wraps).
type FaultManager struct {
	inner DiskManager
	rng   *rand.Rand

	reads, writes uint64 // 1-based operation counters

	transientReadEvery  uint64  // fail every Nth read once (0 = off)
	transientWriteEvery uint64  // fail every Nth write once (0 = off)
	readFaultProb       float64 // seeded fraction of reads to fail (0 = off)
	badPages            map[int]bool

	crashAfterWrites uint64 // crash on write number n+1 (active when crashArmed)
	crashArmed       bool
	crashed          bool

	tornWrites map[uint64]int // write number -> bytes actually persisted

	// The undo record: the pages (metaTarget: the catalog) written since
	// the last sync, in first-write order, and what each held at it.
	written []int
	synced  map[int][]byte

	stats FaultStats
}

const metaTarget = -1 // the catalog in the undo record

// NewFaultManager wraps inner with an empty fault plan. With no plan
// programmed it is a transparent proxy.
func NewFaultManager(inner DiskManager, seed uint64) *FaultManager {
	return &FaultManager{
		inner:      inner,
		rng:        rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		badPages:   make(map[int]bool),
		tornWrites: make(map[uint64]int),
		synced:     make(map[int][]byte),
	}
}

// FailEveryNthRead makes every nth ReadPage fail once with ErrTransient
// (the retry is a fresh operation and succeeds unless it lands on
// another multiple). n <= 0 disables the rule.
func (f *FaultManager) FailEveryNthRead(n int) *FaultManager {
	if n <= 0 {
		f.transientReadEvery = 0
	} else {
		f.transientReadEvery = uint64(n)
	}
	return f
}

// FailEveryNthWrite is FailEveryNthRead for WritePage/WriteMeta.
func (f *FaultManager) FailEveryNthWrite(n int) *FaultManager {
	if n <= 0 {
		f.transientWriteEvery = 0
	} else {
		f.transientWriteEvery = uint64(n)
	}
	return f
}

// FailReadsWithProb makes a seeded p-fraction of reads fail with
// ErrTransient. Deterministic for a given seed and access sequence.
func (f *FaultManager) FailReadsWithProb(p float64) *FaultManager {
	f.readFaultProb = p
	return f
}

// BadPage marks a page permanently unreadable: every ReadPage of it
// fails with a non-transient medium error, forever.
func (f *FaultManager) BadPage(page int) *FaultManager {
	f.badPages[page] = true
	return f
}

// TornWrite makes the writeNumber-th write (1-based, counting WriteMeta)
// persist only the first keep bytes of the page — the device acks a
// write it only partially performed, so the caller continues unaware.
// The rest of the page keeps its previous contents (zeros if fresh),
// which is exactly what a torn sector write leaves behind. A plan aimed
// at a WriteMeta tears nothing: the catalog is written whole.
func (f *FaultManager) TornWrite(writeNumber int, keep int) *FaultManager {
	if writeNumber > 0 && keep >= 0 {
		f.tornWrites[uint64(writeNumber)] = keep
	}
	return f
}

// CrashAfterWrites arms a crash point: the first n writes (WritePage and
// WriteMeta both count) succeed, the (n+1)th is not performed and fails
// with ErrCrashed, and from then on every operation fails with
// ErrCrashed. The crash keeps every write issued before it, synced or
// not. n = 0 crashes on the first write.
func (f *FaultManager) CrashAfterWrites(n int) *FaultManager {
	f.crashArmed = true
	f.crashed = false
	if n < 0 {
		n = 0
	}
	f.crashAfterWrites = uint64(n)
	return f
}

// Pending returns the number of pending writes: one for each page, and
// for the catalog, written since the last sync (a Sync, or a WriteMeta
// that found a page write pending).
func (f *FaultManager) Pending() int { return len(f.written) }

// Crash crashes the device now: it keeps the i-th pending write (pages
// in first-write order since the sync) exactly when keep(i) and undoes
// the others, so the inner manager holds its synced bytes plus the kept
// writes (a dropped page past the synced end reads back as zeros: a
// manager cannot shrink). Every later operation fails with ErrCrashed.
func (f *FaultManager) Crash(keep func(i int) bool) error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	f.crashed = true
	defer f.forget()
	for i, target := range f.written {
		var err error
		switch {
		case keep(i):
		case target == metaTarget:
			err = f.inner.WriteMeta(f.synced[target])
		default:
			err = f.inner.WritePage(target, f.synced[target])
		}
		if err != nil {
			return fmt.Errorf("storage: crash: undoing a dropped write: %w", err)
		}
	}
	return nil
}

// Writes returns the number of write operations (WritePage and
// WriteMeta) issued so far. Crash-matrix harnesses read it to aim
// CrashAfterWrites/TornWrite at the k-th write of a specific operation
// rather than of the whole session.
func (f *FaultManager) Writes() uint64 { return f.writes }

// Crashed reports whether the device has crashed.
func (f *FaultManager) Crashed() bool { return f.crashed }

// FaultStats returns the injected-fault counters.
func (f *FaultManager) FaultStats() FaultStats { return f.stats }

// CorruptStoredPage flips one seeded-random bit of the stored page in
// place (read–modify–write through the inner manager), simulating media
// bit rot that the page checksum must catch. It bypasses the fault plan
// and the crash state: corruption is a property of the medium, not an
// operation of the device.
func (f *FaultManager) CorruptStoredPage(page int) error {
	buf := make([]byte, f.inner.PageSize())
	if err := f.inner.ReadPage(page, buf); err != nil {
		return fmt.Errorf("storage: corrupting page %d: %w", page, err)
	}
	bit := f.rng.IntN(len(buf) * 8)
	buf[bit/8] ^= 1 << (bit % 8)
	if err := f.inner.WritePage(page, buf); err != nil {
		return fmt.Errorf("storage: corrupting page %d: %w", page, err)
	}
	return nil
}

func (f *FaultManager) checkCrashed() error {
	if f.crashed {
		f.stats.CrashedOps++
		return ErrCrashed
	}
	return nil
}

// forget empties the undo record.
func (f *FaultManager) forget() {
	f.written = f.written[:0]
	clear(f.synced)
}

// PageSize implements DiskManager.
func (f *FaultManager) PageSize() int { return f.inner.PageSize() }

// NumPages implements DiskManager.
func (f *FaultManager) NumPages() int { return f.inner.NumPages() }

// ReadPage implements DiskManager, applying the read fault plan.
func (f *FaultManager) ReadPage(page int, dst []byte) error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	f.reads++
	if f.badPages[page] {
		f.stats.PermanentReads++
		return fmt.Errorf("storage: injected permanent read fault on page %d", page)
	}
	if f.transientReadEvery > 0 && f.reads%f.transientReadEvery == 0 {
		f.stats.TransientReads++
		return fmt.Errorf("storage: injected fault on read %d of page %d: %w", f.reads, page, ErrTransient)
	}
	if f.readFaultProb > 0 && f.rng.Float64() < f.readFaultProb {
		f.stats.TransientReads++
		return fmt.Errorf("storage: injected fault on read %d of page %d: %w", f.reads, page, ErrTransient)
	}
	return f.inner.ReadPage(page, dst)
}

// startWrite counts a write (the catalog's too, the most interesting
// one to interrupt), applies the crash point and the transient rule,
// and records target's bytes at its first write since the last sync.
// A catalog write first syncs, as FileManager's does, when a page write
// is pending.
func (f *FaultManager) startWrite(target int) error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	f.writes++
	if f.crashArmed && f.writes > f.crashAfterWrites {
		f.crashed = true
		f.forget() // it keeps every pending write: nothing to undo
		f.stats.CrashedOps++
		return fmt.Errorf("storage: crash point at write %d: %w", f.writes, ErrCrashed)
	}
	if f.transientWriteEvery > 0 && f.writes%f.transientWriteEvery == 0 {
		f.stats.TransientWrites++
		return fmt.Errorf("storage: injected fault on write %d: %w", f.writes, ErrTransient)
	}
	if target == metaTarget && slices.ContainsFunc(f.written, func(p int) bool { return p != metaTarget }) {
		f.forget()
	}
	if _, seen := f.synced[target]; !seen {
		f.synced[target] = f.storedBytes(target)
		f.written = append(f.written, target)
	}
	return nil
}

// storedBytes returns what the inner manager holds at target; a page
// past its end or unreadable holds zeros, an unreadable catalog nothing.
func (f *FaultManager) storedBytes(target int) []byte {
	if target == metaTarget {
		meta, _ := f.inner.ReadMeta()
		return meta
	}
	buf := make([]byte, f.inner.PageSize())
	if target < f.inner.NumPages() && f.inner.ReadPage(target, buf) != nil {
		clear(buf)
	}
	return buf
}

// WritePage implements DiskManager, applying the write fault plan.
func (f *FaultManager) WritePage(page int, data []byte) error {
	if err := f.startWrite(page); err != nil {
		return err
	}
	if keep, ok := f.tornWrites[f.writes]; ok {
		// A lying disk: the prefix lands, and the write reports success.
		f.stats.TornWrites++
		torn := f.storedBytes(page)
		copy(torn, data[:min(keep, len(data))])
		data = torn
	}
	return f.inner.WritePage(page, data)
}

// WriteMeta implements DiskManager with FileManager's contract, applying
// the write fault plan: every write issued before it is durable once a
// page write was pending, and the catalog stays pending until the next
// Sync.
func (f *FaultManager) WriteMeta(meta []byte) error {
	if err := f.startWrite(metaTarget); err != nil {
		return err
	}
	return f.inner.WriteMeta(meta)
}

// ReadMeta implements DiskManager.
func (f *FaultManager) ReadMeta() ([]byte, error) {
	if err := f.checkCrashed(); err != nil {
		return nil, err
	}
	return f.inner.ReadMeta()
}

// Sync forwards a durability barrier to the inner manager (when it
// supports one), honouring the fail-stop state: a crashed device cannot
// be synced. Once it succeeds no write issued before it is pending.
func (f *FaultManager) Sync() error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	if err := syncManager(f.inner); err != nil {
		return err
	}
	f.forget()
	return nil
}

// Stats implements DiskManager, delegating physical I/O accounting.
func (f *FaultManager) Stats() IOStats { return f.inner.Stats() }

// ResetStats implements DiskManager.
func (f *FaultManager) ResetStats() { f.inner.ResetStats() }

// Close implements DiskManager. It always releases the inner manager —
// after a simulated crash the test harness still owns the real file —
// but reports ErrCrashed if a crash came first. Without one, every
// pending write stays: closing is not a crash.
func (f *FaultManager) Close() error {
	err := f.inner.Close()
	if f.crashed {
		f.stats.CrashedOps++
		return fmt.Errorf("storage: close after crash (inner close error: %v): %w", err, ErrCrashed)
	}
	return err
}
