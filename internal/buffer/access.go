package buffer

// AccessInfo is the per-access attribution a pool reports alongside a
// page read: whether the page was resident and how many dirty pages the
// access had to write back to make room. The storage layer feeds it
// to the flight recorder so slow queries can be explained page by page;
// pools that don't care keep calling Get, which discards it.
type AccessInfo struct {
	// Hit reports whether the page was served from a resident frame.
	Hit bool
	// WriteBacks counts the dirty pages this access wrote back to the
	// sink before it could install its own page (0 on hits).
	WriteBacks int
}
