package storage

import (
	"path/filepath"
	"testing"
	"time"

	"rtreebuf/internal/obs"
)

func obsValue(t *testing.T, reg *obs.Registry, fullName string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.FullName() == fullName {
			return s.Value
		}
	}
	t.Fatalf("metric %s not found in snapshot", fullName)
	return 0
}

// TestMetricsMirrorIO drives a full manager stack — resilient over fault
// over file — with SetManagerMetrics attached once at the top, and
// checks the obs series agree with the result-bearing stats structs.
func TestMetricsMirrorIO(t *testing.T) {
	reg := obs.NewRegistry()
	fm, err := CreateFile(filepath.Join(t.TempDir(), "pages.rt"), MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	fault := NewFaultManager(fm, 1).FailEveryNthRead(3)
	res := NewResilientManager(fault, WithSleep(func(time.Duration) {}))
	SetManagerMetrics(res, NewMetrics(reg))

	page := make([]byte, MinPageSize)
	for i := 0; i < 4; i++ {
		if err := res.WritePage(i, page); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, MinPageSize)
	for i := 0; i < 4; i++ {
		if err := res.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	io := res.Stats()
	if got := obsValue(t, reg, "storage_page_reads_total"); got != float64(io.Reads) {
		t.Errorf("obs reads = %v, stats %d", got, io.Reads)
	}
	if got := obsValue(t, reg, "storage_page_writes_total"); got != float64(io.Writes) {
		t.Errorf("obs writes = %v, stats %d", got, io.Writes)
	}
	if got := obsValue(t, reg, "storage_read_bytes_total"); got != float64(io.Reads)*MinPageSize {
		t.Errorf("obs read bytes = %v, want %d", got, io.Reads*MinPageSize)
	}
	rs := res.RetryStats()
	if rs.Retries == 0 {
		t.Fatal("fault plan never fired; test covers nothing")
	}
	if got := obsValue(t, reg, "storage_retries_total"); got != float64(rs.Retries) {
		t.Errorf("obs retries = %v, stats %d", got, rs.Retries)
	}
	if got := obsValue(t, reg, "storage_retry_recoveries_total"); got != float64(rs.Recoveries) {
		t.Errorf("obs recoveries = %v, stats %d", got, rs.Recoveries)
	}
	// Close syncs the file at least once.
	if got := obsValue(t, reg, "storage_fsyncs_total"); got < 1 {
		t.Errorf("obs fsyncs = %v, want >= 1", got)
	}
}
