package storage

import "rtreebuf/internal/obs"

// Metrics mirrors storage-layer events into an obs.Registry: physical
// page transfers (count and bytes), fsyncs, the resilience layer's
// retry outcomes, and the WAL's records, commits, checkpoints and
// replays. Like the buffer mirror it is purely additive — the
// result-bearing IOStats / RetryStats structs stay the source of truth, the obs
// series are cumulative shadows — and a nil *Metrics disables every
// method at the cost of one branch (zero allocations, guarded by
// BenchmarkObsDisabled).
type Metrics struct {
	reads      *obs.Counter
	writes     *obs.Counter
	readBytes  *obs.Counter
	writeBytes *obs.Counter
	fsyncs     *obs.Counter

	retries    *obs.Counter
	recoveries *obs.Counter
	giveups    *obs.Counter

	walRecords            *obs.Counter
	walCommits            *obs.Counter
	walCheckpoints        *obs.Counter
	walCheckpointFailures *obs.Counter
	walReplayedPages      *obs.Counter
	walReplayedBatches    *obs.Counter
}

// NewMetrics registers the storage counter families in reg. A nil
// registry returns a nil (disabled) Metrics. Multiple managers may share
// one Metrics; the series then aggregate across them.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reads:      reg.Counter("storage_page_reads_total"),
		writes:     reg.Counter("storage_page_writes_total"),
		readBytes:  reg.Counter("storage_read_bytes_total"),
		writeBytes: reg.Counter("storage_write_bytes_total"),
		fsyncs:     reg.Counter("storage_fsyncs_total"),

		retries:    reg.Counter("storage_retries_total"),
		recoveries: reg.Counter("storage_retry_recoveries_total"),
		giveups:    reg.Counter("storage_retry_giveups_total"),

		walRecords:            reg.Counter("storage_wal_records_total"),
		walCommits:            reg.Counter("storage_wal_commits_total"),
		walCheckpoints:        reg.Counter("storage_wal_checkpoints_total"),
		walCheckpointFailures: reg.Counter("storage_wal_checkpoint_failures_total"),
		walReplayedPages:      reg.Counter("storage_wal_replayed_pages_total"),
		walReplayedBatches:    reg.Counter("storage_wal_replayed_batches_total"),
	}
}

func (m *Metrics) noteRead(bytes int) {
	if m == nil {
		return
	}
	m.reads.Inc()
	m.readBytes.Add(uint64(bytes))
}

func (m *Metrics) noteWrite(bytes int) {
	if m == nil {
		return
	}
	m.writes.Inc()
	m.writeBytes.Add(uint64(bytes))
}

func (m *Metrics) noteFsync() {
	if m == nil {
		return
	}
	m.fsyncs.Inc()
}

func (m *Metrics) noteRetry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

func (m *Metrics) noteRecovery() {
	if m == nil {
		return
	}
	m.recoveries.Inc()
}

func (m *Metrics) noteGiveup() {
	if m == nil {
		return
	}
	m.giveups.Inc()
}

func (m *Metrics) noteWALRecord() {
	if m == nil {
		return
	}
	m.walRecords.Inc()
}

func (m *Metrics) noteWALCommit() {
	if m == nil {
		return
	}
	m.walCommits.Inc()
}

func (m *Metrics) noteWALCheckpoint() {
	if m == nil {
		return
	}
	m.walCheckpoints.Inc()
}

func (m *Metrics) noteWALCheckpointFailure() {
	if m == nil {
		return
	}
	m.walCheckpointFailures.Inc()
}

func (m *Metrics) noteWALReplayedPage() {
	if m == nil {
		return
	}
	m.walReplayedPages.Inc()
}

func (m *Metrics) noteWALReplayedBatch() {
	if m == nil {
		return
	}
	m.walReplayedBatches.Inc()
}

// SetManagerMetrics attaches m to dm and, for the wrapping managers
// (resilient, fault), descends into the wrapped manager too, so one call
// instruments a whole stack. A fault manager is a test harness and keeps
// its own record (FaultStats); it only passes m down, so m also counts
// the I/O of its undo record (FaultManager). Managers of unknown type
// are skipped.
func SetManagerMetrics(dm DiskManager, m *Metrics) {
	for dm != nil {
		switch v := dm.(type) {
		case *MemoryManager:
			v.metrics = m
			return
		case *FileManager:
			v.metrics = m
			return
		case *ResilientManager:
			v.metrics = m
			dm = v.inner
		case *FaultManager:
			dm = v.inner
		default:
			return
		}
	}
}
