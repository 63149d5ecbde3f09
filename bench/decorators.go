package main

import (
	"errors"
	"slices"

	"rtreebuf/internal/storage"
)

// The program is measured from outside: these wrappers sit on the two
// storage.DiskManager boundaries (page file, log device) and add nothing
// to the program itself. They are installed in the traced run only.

type ioKind int

const (
	ioRead ioKind = iota
	ioWrite
	ioMeta
	ioSync
	numIOKinds
)

// syncer is the optional durability barrier storage looks for on a
// manager; every wrapper here must forward it or checkpoints stop
// reaching the file.
type syncer interface{ Sync() error }

// timedDM counts every call it forwards and, while the tracer is
// enabled, records a child span and the time for the kinds it names.
// One client only: the counters are plain fields.
type timedDM struct {
	storage.DiskManager
	tr    *tracer
	names [numIOKinds]uint8
	timed [numIOKinds]bool

	count [numIOKinds]uint64 // calls forwarded since creation
	spans [numIOKinds]uint64 // calls timed
	ns    [numIOKinds]int64  // their summed duration
	bytes uint64             // payload of the WritePage calls
}

// newTimedDM wraps inner. names maps a call kind to its span name; a
// kind left out is forwarded and counted but not timed.
func newTimedDM(inner storage.DiskManager, tr *tracer, names map[ioKind]uint8) *timedDM {
	d := &timedDM{DiskManager: inner, tr: tr}
	for k, n := range names {
		d.names[k], d.timed[k] = n, true
	}
	return d
}

func (d *timedDM) begin(k ioKind) int32 {
	d.count[k]++
	if !d.timed[k] {
		return -1
	}
	return d.tr.begin(d.names[k])
}

func (d *timedDM) end(k ioKind, i int32) {
	if i < 0 {
		return
	}
	d.tr.end(i)
	d.spans[k]++
	d.ns[k] += d.tr.spans[i].end - d.tr.spans[i].start
}

func (d *timedDM) ReadPage(page int, dst []byte) error {
	i := d.begin(ioRead)
	err := d.DiskManager.ReadPage(page, dst)
	d.end(ioRead, i)
	return err
}

func (d *timedDM) WritePage(page int, data []byte) error {
	d.bytes += uint64(len(data))
	i := d.begin(ioWrite)
	err := d.DiskManager.WritePage(page, data)
	d.end(ioWrite, i)
	return err
}

func (d *timedDM) WriteMeta(meta []byte) error {
	i := d.begin(ioMeta)
	err := d.DiskManager.WriteMeta(meta)
	d.end(ioMeta, i)
	return err
}

func (d *timedDM) Sync() error {
	s, ok := d.DiskManager.(syncer)
	if !ok {
		return nil
	}
	i := d.begin(ioSync)
	err := s.Sync()
	d.end(ioSync, i)
	return err
}

// meanNS is the mean duration of the timed calls of one kind.
func (d *timedDM) meanNS(k ioKind) float64 {
	return ratio(float64(d.ns[k]), float64(d.spans[k]))
}

var errCrashed = errors.New("bench: device crashed")

// crashPoint is shared by the volatile wrappers of the page file and the
// log device, so one countdown of page writes takes both down at once.
type crashPoint struct {
	armed     bool
	remaining int // page writes still to succeed once armed
	crashed   bool
}

// volatileDM models the cache between the program and the medium:
// page writes are held back until the next Sync or WriteMeta (the two
// calls FileManager makes durable with an fsync) and are dropped when
// the crash point fires. Killing the process would leave the operating
// system's cache intact, so the harness discards the unflushed bytes
// itself; reopening inner afterwards sees only what was flushed.
type volatileDM struct {
	inner storage.DiskManager
	crash *crashPoint
	held  []heldPage  // in the order first written
	index map[int]int // page -> position in held
	top   int         // highest held page + 1
}

type heldPage struct {
	page int
	data []byte
}

func newVolatileDM(inner storage.DiskManager, c *crashPoint) *volatileDM {
	return &volatileDM{inner: inner, crash: c, index: map[int]int{}}
}

func (v *volatileDM) PageSize() int { return v.inner.PageSize() }

func (v *volatileDM) NumPages() int { return max(v.inner.NumPages(), v.top) }

func (v *volatileDM) ReadPage(page int, dst []byte) error {
	if v.crash.crashed {
		return errCrashed
	}
	if i, ok := v.index[page]; ok {
		copy(dst, v.held[i].data)
		return nil
	}
	return v.inner.ReadPage(page, dst)
}

func (v *volatileDM) WritePage(page int, data []byte) error {
	if v.crash.crashed {
		return errCrashed
	}
	if v.crash.armed {
		if v.crash.remaining == 0 {
			v.crash.crashed = true
			return errCrashed
		}
		v.crash.remaining--
	}
	if i, ok := v.index[page]; ok {
		copy(v.held[i].data, data)
		return nil
	}
	v.index[page] = len(v.held)
	v.held = append(v.held, heldPage{page, slices.Clone(data)}) //lint:allow hotalloc holding a copy until the next flush is what this wrapper is for; it only runs in the durability check
	v.top = max(v.top, page+1)
	return nil
}

// flush moves the held pages to the medium.
func (v *volatileDM) flush() error {
	for _, h := range v.held {
		if err := v.inner.WritePage(h.page, h.data); err != nil {
			return err
		}
	}
	v.drop()
	return nil
}

func (v *volatileDM) drop() {
	v.held, v.top = v.held[:0], 0
	clear(v.index)
}

func (v *volatileDM) WriteMeta(meta []byte) error {
	if v.crash.crashed {
		return errCrashed
	}
	if err := v.flush(); err != nil {
		return err
	}
	return v.inner.WriteMeta(meta)
}

func (v *volatileDM) Sync() error {
	if v.crash.crashed {
		return errCrashed
	}
	if err := v.flush(); err != nil {
		return err
	}
	if s, ok := v.inner.(syncer); ok {
		return s.Sync()
	}
	return nil
}

func (v *volatileDM) ReadMeta() ([]byte, error) {
	if v.crash.crashed {
		return nil, errCrashed
	}
	return v.inner.ReadMeta()
}

func (v *volatileDM) Stats() storage.IOStats { return v.inner.Stats() }

func (v *volatileDM) ResetStats() { v.inner.ResetStats() }

// Close drops whatever was never flushed; the owner closes inner.
func (v *volatileDM) Close() error {
	v.drop()
	return nil
}
