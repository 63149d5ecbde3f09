package storage

import (
	"fmt"

	"rtreebuf/internal/rtree"
)

// PageFault records one damaged page and what is wrong with it.
type PageFault struct {
	Page int
	Err  error
}

func (p PageFault) String() string { return fmt.Sprintf("page %d: %v", p.Page, p.Err) }

// ScrubReport is the structured result of a Scrub pass: which pages the
// catalog claims, which of them are unreadable or corrupt, and whether
// the catalog itself is sound. A zero Faults slice with a nil MetaErr
// means every byte the tree depends on verified.
type ScrubReport struct {
	PageSize int
	Pages    int         // pages the catalog claims the tree occupies
	MetaErr  error       // non-nil when the catalog is missing, undecodable, or inconsistent
	Faults   []PageFault // unreadable, checksum-failing, or structurally invalid pages
}

// Clean reports whether the scrub found nothing wrong.
func (r ScrubReport) Clean() bool { return r.MetaErr == nil && len(r.Faults) == 0 }

// String renders a one-line summary.
func (r ScrubReport) String() string {
	switch {
	case r.Clean():
		return fmt.Sprintf("clean: %d pages verified", r.Pages)
	case r.MetaErr != nil:
		return fmt.Sprintf("corrupt: catalog unusable (%v), %d damaged pages found", r.MetaErr, len(r.Faults))
	default:
		return fmt.Sprintf("corrupt: %d of %d pages damaged", len(r.Faults), r.Pages)
	}
}

// Scrub verifies a persisted tree end to end: the catalog decodes and is
// consistent with the allocated page count, and every node page reads,
// passes its checksum, decodes, and references only in-range child
// pages (on an updated tree, walkTree's checks). It never stops at the
// first fault — the report names every damaged page so an operator can
// judge blast radius. Pair it with
// PagedTree degraded mode to keep serving around the damage, or with a
// re-save to repair it.
func Scrub(dm DiskManager) ScrubReport {
	rep := ScrubReport{PageSize: dm.PageSize()}
	metaBuf, err := dm.ReadMeta()
	if err != nil {
		rep.MetaErr = fmt.Errorf("storage: reading catalog: %w", err)
		return rep
	}
	meta, err := decodeMeta(metaBuf)
	if err != nil {
		rep.MetaErr = err
		return rep
	}
	rep.Pages = meta.NumPages()
	if meta.PageSpan() > dm.NumPages() {
		rep.MetaErr = fmt.Errorf("storage: catalog claims %d pages but only %d are allocated",
			meta.PageSpan(), dm.NumPages())
		return rep
	}
	if !meta.LevelOrder {
		// An updated tree's live pages are whatever the root reaches.
		live := 0
		// With a fault recorder and a visit that cannot fail, the walk returns nil.
		_ = walkTree(dm, meta, len(meta.Levels),
			func(int, int, *rtree.NodeData) error { live++; return nil },
			func(f PageFault) { rep.Faults = append(rep.Faults, f) })
		if len(rep.Faults) == 0 && live != rep.Pages {
			rep.MetaErr = fmt.Errorf("storage: catalog claims %d live pages but the root reaches %d",
				rep.Pages, live)
		}
		return rep
	}
	buf := make([]byte, dm.PageSize())
	for page := 0; page < rep.Pages; page++ {
		if err := dm.ReadPage(page, buf); err != nil {
			rep.Faults = append(rep.Faults, PageFault{Page: page, Err: err})
			continue
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			rep.Faults = append(rep.Faults, PageFault{Page: page, Err: err})
			continue
		}
		if !nd.Leaf {
			for i, child := range nd.Children {
				if child <= page || child >= rep.Pages {
					rep.Faults = append(rep.Faults, PageFault{
						Page: page,
						Err: fmt.Errorf("storage: entry %d references out-of-range child page %d (tree has %d pages, level order)",
							i, child, rep.Pages),
					})
					break
				}
			}
		}
	}
	return rep
}
