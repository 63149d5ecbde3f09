package storage

import (
	"sync"

	"rtreebuf/internal/par"
	"rtreebuf/internal/rtree"
)

// saveBatchPages is how many consecutive pages one encoding task covers:
// enough (256 KiB of 4 KiB pages) that handing a batch between goroutines
// costs nothing beside encoding it, few enough that the buffers in flight
// stay small.
const saveBatchPages = 64

// pageBatch is a run of consecutive pages, encoded into one reused buffer.
type pageBatch struct {
	lo, hi int    // the pages to encode
	n      int    // how many were: hi-lo, or fewer when err stopped it
	err    error  // why page lo+n could not be encoded
	buf    []byte // the n encoded pages
	nd     rtree.NodeData
	ready  chan struct{} // signalled once per encode, by an encoder to the writer; nil when the writer encodes
}

// newPageBatch returns a batch with room for a full run of a pages-page
// save.
func newPageBatch(pages, pageSize int) *pageBatch {
	return &pageBatch{buf: make([]byte, min(pages, saveBatchPages)*pageSize)}
}

func (b *pageBatch) encode(x rtree.PageExporter, pageSize int) {
	b.n, b.err = 0, nil
	for page := b.lo; page < b.hi; page++ {
		x.Export(page, &b.nd)
		if b.err = encodeNodeInto(b.buf[b.n*pageSize:][:pageSize], b.nd); b.err != nil {
			return
		}
		b.n++
	}
}

// write issues the batch's pages in ascending order and returns the first
// error: a device's, or the encoder's for the page it stopped before.
func (b *pageBatch) write(dm DiskManager, pageSize int) error {
	for i := 0; i < b.n; i++ {
		if err := dm.WritePage(b.lo+i, b.buf[i*pageSize:][:pageSize]); err != nil {
			return err
		}
	}
	return b.err
}

// savePages writes every page of x to dm: WritePage(0), WritePage(1), ...
// from the calling goroutine, stopping at the first error, which is what
// a loop of encode-then-write does. Given a second processor and enough
// pages, the encoding moves to the other processors: the writer hands
// batches of pages to encoders in order, over a window of reused buffers,
// and takes them back in the same order, so what the device sees — the
// calls, their order, their bytes — does not depend on who encoded what.
func savePages(dm DiskManager, x rtree.PageExporter) error {
	pages, pageSize := x.NumPages(), dm.PageSize()
	encoders := par.Workers(pages, saveBatchPages) - 1 // the writer has the remaining processor
	if encoders == 0 {
		b := newPageBatch(pages, pageSize)
		for b.lo = 0; b.lo < pages; b.lo = b.hi {
			b.hi = min(b.lo+saveBatchPages, pages)
			b.encode(x, pageSize)
			if err := b.write(dm, pageSize); err != nil {
				return err
			}
		}
		return nil
	}

	// Each encoder has one batch to fill while the writer drains another.
	window := make([]*pageBatch, 2*encoders)
	for i := range window {
		window[i] = newPageBatch(pages, pageSize)
		window[i].ready = make(chan struct{}, 1)
	}
	work := make(chan *pageBatch, len(window)) // at most the window is out: a send never blocks
	var wg sync.WaitGroup
	for i := 0; i < encoders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				b.encode(x, pageSize)
				b.ready <- struct{}{}
			}
		}()
	}
	// On any return the encoders finish the batches they hold (ready has
	// room for the one signal nobody will take) and leave.
	defer wg.Wait()
	defer close(work)

	batches := (pages + saveBatchPages - 1) / saveBatchPages
	for next, cur := 0, 0; cur < batches; cur++ {
		for ; next < batches && next < cur+len(window); next++ {
			b := window[next%len(window)]
			b.lo, b.hi = next*saveBatchPages, min((next+1)*saveBatchPages, pages)
			work <- b
		}
		b := window[cur%len(window)]
		<-b.ready
		if err := b.write(dm, pageSize); err != nil {
			return err
		}
	}
	return nil
}
