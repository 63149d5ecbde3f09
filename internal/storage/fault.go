package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
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
// the page, and crash points after which the manager goes fail-stop.
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

	stats FaultStats
}

// NewFaultManager wraps inner with an empty fault plan. With no plan
// programmed it is a transparent proxy.
func NewFaultManager(inner DiskManager, seed uint64) *FaultManager {
	return &FaultManager{
		inner:      inner,
		rng:        rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		badPages:   make(map[int]bool),
		tornWrites: make(map[uint64]int),
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
// which is exactly what a torn sector write leaves behind.
func (f *FaultManager) TornWrite(writeNumber int, keep int) *FaultManager {
	if writeNumber > 0 && keep >= 0 {
		f.tornWrites[uint64(writeNumber)] = keep
	}
	return f
}

// CrashAfterWrites arms a crash point: the first n writes (WritePage and
// WriteMeta both count) succeed, the (n+1)th is not performed and fails
// with ErrCrashed, and from then on every operation fails with
// ErrCrashed. n = 0 crashes on the first write.
func (f *FaultManager) CrashAfterWrites(n int) *FaultManager {
	f.crashArmed = true
	f.crashed = false
	if n < 0 {
		n = 0
	}
	f.crashAfterWrites = uint64(n)
	return f
}

// Writes returns the number of write operations (WritePage and
// WriteMeta) issued so far. Crash-matrix harnesses read it to aim
// CrashAfterWrites/TornWrite at the k-th write of a specific operation
// rather than of the whole session.
func (f *FaultManager) Writes() uint64 { return f.writes }

// Crashed reports whether a crash point has fired.
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

// WritePage implements DiskManager, applying the write fault plan.
func (f *FaultManager) WritePage(page int, data []byte) error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	f.writes++
	if f.crashArmed && f.writes > f.crashAfterWrites {
		f.crashed = true
		f.stats.CrashedOps++
		return fmt.Errorf("storage: crash point at write %d: %w", f.writes, ErrCrashed)
	}
	if f.transientWriteEvery > 0 && f.writes%f.transientWriteEvery == 0 {
		f.stats.TransientWrites++
		return fmt.Errorf("storage: injected fault on write %d of page %d: %w", f.writes, page, ErrTransient)
	}
	if keep, torn := f.tornWrites[f.writes]; torn {
		f.stats.TornWrites++
		return f.tornWrite(page, data, keep)
	}
	return f.inner.WritePage(page, data)
}

// tornWrite persists only the first keep bytes of data over whatever the
// page held before, then reports success like a lying disk would.
func (f *FaultManager) tornWrite(page int, data []byte, keep int) error {
	if keep > len(data) {
		keep = len(data)
	}
	composed := make([]byte, f.inner.PageSize())
	if page < f.inner.NumPages() {
		if err := f.inner.ReadPage(page, composed); err != nil {
			// Unreadable old contents: the tear lands on zeros.
			for i := range composed {
				composed[i] = 0
			}
		}
	}
	copy(composed, data[:keep])
	return f.inner.WritePage(page, composed)
}

// WriteMeta implements DiskManager. Metadata writes count toward the
// write sequence, so crash points and transient-write rules can land on
// the catalog write — the most interesting write to interrupt.
func (f *FaultManager) WriteMeta(meta []byte) error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	f.writes++
	if f.crashArmed && f.writes > f.crashAfterWrites {
		f.crashed = true
		f.stats.CrashedOps++
		return fmt.Errorf("storage: crash point at write %d (meta): %w", f.writes, ErrCrashed)
	}
	if f.transientWriteEvery > 0 && f.writes%f.transientWriteEvery == 0 {
		f.stats.TransientWrites++
		return fmt.Errorf("storage: injected fault on meta write %d: %w", f.writes, ErrTransient)
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
// be synced.
func (f *FaultManager) Sync() error {
	if err := f.checkCrashed(); err != nil {
		return err
	}
	return syncManager(f.inner)
}

// Stats implements DiskManager, delegating physical I/O accounting.
func (f *FaultManager) Stats() IOStats { return f.inner.Stats() }

// ResetStats implements DiskManager.
func (f *FaultManager) ResetStats() { f.inner.ResetStats() }

// Close implements DiskManager. It always releases the inner manager —
// after a simulated crash the test harness still owns the real file —
// but reports ErrCrashed if the crash point fired first.
func (f *FaultManager) Close() error {
	err := f.inner.Close()
	if f.crashed {
		f.stats.CrashedOps++
		return fmt.Errorf("storage: close after crash (inner close error: %v): %w", err, ErrCrashed)
	}
	return err
}
