package storage

import (
	"fmt"
	"time"
)

// RetryStats counts what the resilience layer did: Retries is the total
// number of re-issued operations, Recoveries the operations that
// ultimately succeeded after at least one retry, and Giveups the
// operations that exhausted the retry budget and surfaced an error.
type RetryStats struct {
	Retries    uint64
	Recoveries uint64
	Giveups    uint64
}

// The retry budget: a transiently failing operation is re-issued up to
// maxRetries times, the nth retry after a sleep of retryDelay<<(n-1) —
// 1, 2, 4 and 8 ms.
const (
	maxRetries = 4
	retryDelay = time.Millisecond
)

// ResilientManager wraps a DiskManager with a retry policy for the
// failures disks actually exhibit: operations failing with a Transient
// error are retried with exponential backoff. Other errors surface at
// once: retrying a medium error only burns the latency budget, and a page
// that fails its checksum is refused where it enters the buffer pool.
//
// The sleep function is injectable so tests exercise the full backoff
// schedule in zero wall-clock time. Everything else delegates, so
// stacking ResilientManager over a FaultManager over a FileManager runs
// the identical query path the paper's cost model prices.
type ResilientManager struct {
	inner   DiskManager
	sleep   func(time.Duration)
	stats   RetryStats
	metrics *Metrics
}

// ResilientOption configures a ResilientManager.
type ResilientOption func(*ResilientManager)

// WithSleep injects the sleep function (default time.Sleep). Tests pass
// a recorder so the whole backoff schedule runs instantly.
func WithSleep(sleep func(time.Duration)) ResilientOption {
	return func(r *ResilientManager) { r.sleep = sleep }
}

// NewResilientManager wraps inner with the retry policy, sleeping with
// time.Sleep unless an option says otherwise.
func NewResilientManager(inner DiskManager, opts ...ResilientOption) *ResilientManager {
	r := &ResilientManager{inner: inner, sleep: time.Sleep}
	for _, o := range opts {
		o(r)
	}
	return r
}

// RetryStats returns the cumulative retry counters.
func (r *ResilientManager) RetryStats() RetryStats { return r.stats }

// ResetRetryStats zeroes the retry counters.
func (r *ResilientManager) ResetRetryStats() { r.stats = RetryStats{} }

// again is the retry policy, asked only after an operation has failed
// attempt+1 times with *err. It sleeps and reports true when the
// operation should be re-issued; on a non-transient error, or with the
// budget spent (*err then says so), it reports false.
func (r *ResilientManager) again(attempt int, err *error) bool {
	if !Transient(*err) {
		return false
	}
	if attempt >= maxRetries {
		r.stats.Giveups++
		r.metrics.noteGiveup()
		*err = fmt.Errorf("storage: gave up after %d retries: %w", maxRetries, *err)
		return false
	}
	r.stats.Retries++
	r.metrics.noteRetry()
	r.sleep(retryDelay << attempt)
	return true
}

// recovered counts an operation that succeeded on a retry.
func (r *ResilientManager) recovered() {
	r.stats.Recoveries++
	r.metrics.noteRecovery()
}

// PageSize implements DiskManager.
func (r *ResilientManager) PageSize() int { return r.inner.PageSize() }

// NumPages implements DiskManager.
func (r *ResilientManager) NumPages() int { return r.inner.NumPages() }

// ReadPage implements DiskManager with transient-error retry.
func (r *ResilientManager) ReadPage(page int, dst []byte) error {
	err := r.inner.ReadPage(page, dst)
	for attempt := 0; err != nil && r.again(attempt, &err); attempt++ {
		if err = r.inner.ReadPage(page, dst); err == nil {
			r.recovered()
		}
	}
	return err
}

// WritePage implements DiskManager with transient-error retry.
func (r *ResilientManager) WritePage(page int, data []byte) error {
	err := r.inner.WritePage(page, data)
	for attempt := 0; err != nil && r.again(attempt, &err); attempt++ {
		if err = r.inner.WritePage(page, data); err == nil {
			r.recovered()
		}
	}
	return err
}

// WriteMeta implements DiskManager with transient-error retry.
func (r *ResilientManager) WriteMeta(meta []byte) error {
	err := r.inner.WriteMeta(meta)
	for attempt := 0; err != nil && r.again(attempt, &err); attempt++ {
		if err = r.inner.WriteMeta(meta); err == nil {
			r.recovered()
		}
	}
	return err
}

// ReadMeta implements DiskManager with transient-error retry.
func (r *ResilientManager) ReadMeta() ([]byte, error) {
	meta, err := r.inner.ReadMeta()
	for attempt := 0; err != nil && r.again(attempt, &err); attempt++ {
		if meta, err = r.inner.ReadMeta(); err == nil {
			r.recovered()
		}
	}
	return meta, err
}

// Sync forwards a durability barrier to the wrapped manager. Syncs are
// not retried: a failed barrier means durability is unknown, which the
// caller must treat as fatal rather than paper over.
func (r *ResilientManager) Sync() error { return syncManager(r.inner) }

// Stats implements DiskManager, delegating physical I/O accounting
// (retried reads are physical reads and count as such).
func (r *ResilientManager) Stats() IOStats { return r.inner.Stats() }

// ResetStats implements DiskManager.
func (r *ResilientManager) ResetStats() { r.inner.ResetStats() }

// Close implements DiskManager.
func (r *ResilientManager) Close() error { return r.inner.Close() }
