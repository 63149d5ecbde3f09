package monitor

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// The drift scenario: a packed tree on a page file, a buffer too small
// for the full reachable set but comfortably larger than the hotspot's
// working set, and windows sized so the measured stream is exactly ten
// of them — the first five uniform, the last five in the hotspot.
const (
	driftBuffer  = 60
	driftWarmup  = 2000
	driftWindow  = 2000
	driftWindows = 10
	driftShiftAt = 5 // windows before the queries move into the hotspot
	driftSeed    = 20240
)

// driftHot is the hotspot the shifted stream moves into.
var driftHot = geom.Rect{MinX: 0, MinY: 0, MaxX: 0.2, MaxY: 0.2}

// driftTree saves a Hilbert-packed tree over synthetic regions to an
// in-memory page file and returns the file with the LRU model's
// predictor over the same tree.
func driftTree(t *testing.T) (storage.DiskManager, *core.Predictor) {
	t.Helper()
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 20}, datagen.Items(datagen.SyntheticRegions(2000, 77)))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := storage.NewMemoryManager(storage.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	qm, err := core.NewUniformQueries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dm, core.NewPredictor(tr.Levels(), qm)
}

// driftOutcome is what one run of the scenario leaves behind: the
// monitor's state (zero when unmonitored) and what the tree did.
type driftOutcome struct {
	status                  Status
	hits, misses, evictions uint64
	results                 int
}

// runDrift opens a fresh paged tree on dm and drives the scenario's
// point queries through it, wired the way rtreequery -monitor wires
// it: the pool's metrics mirror and the monitor share one registry, the
// pool's stats are reset and the monitor rebased after warm-up, and the
// monitor is ticked once per measured query. With pred nil the tree
// runs bare, with no mirror and no monitor.
func runDrift(t *testing.T, dm storage.DiskManager, pred *core.Predictor, shift bool) driftOutcome {
	t.Helper()
	paged, err := storage.OpenPagedTree(dm, driftBuffer)
	if err != nil {
		t.Fatal(err)
	}
	var mon *Monitor
	if pred != nil {
		reg := obs.NewRegistry()
		paged.SetMetrics(buffer.NewMetrics(reg, "lru"))
		p, err := PredictionFor(pred, "lru", driftBuffer, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		mon = New(reg, p, Config{Window: driftWindow})
	}

	rng := rand.New(rand.NewPCG(driftSeed, driftSeed^0x9e3779b97f4a7c15))
	var out driftOutcome
	query := func(area geom.Rect) {
		got, err := paged.SearchPoint(geom.Point{
			X: area.MinX + rng.Float64()*(area.MaxX-area.MinX),
			Y: area.MinY + rng.Float64()*(area.MaxY-area.MinY),
		})
		if err != nil {
			t.Fatal(err)
		}
		out.results += len(got)
	}
	for i := 0; i < driftWarmup; i++ {
		query(geom.UnitSquare)
	}
	paged.Pool().ResetStats()
	mon.Rebase()
	for w := 0; w < driftWindows; w++ {
		area := geom.UnitSquare
		if shift && w >= driftShiftAt {
			area = driftHot
		}
		for i := 0; i < driftWindow; i++ {
			query(area)
			mon.OnQuery()
		}
	}
	out.status = mon.Status()
	out.hits, out.misses, out.evictions = paged.Pool().Stats()
	return out
}

// TestDriftAlarmOnWorkloadShift is the monitor's end-to-end contract on
// the stack it watches: a mid-run shift from uniform points to a small
// hotspot collapses the working set into the buffer, the pool's
// observed miss rate departs from the frozen prediction, and the CUSUM
// detector alarms — deterministically, because the query stream is
// seeded and windows tick on query counts.
func TestDriftAlarmOnWorkloadShift(t *testing.T) {
	dm, pred := driftTree(t)
	s := runDrift(t, dm, pred, true).status
	t.Logf("shifted: %d alarms, last residual %+.3f", s.Alarms, s.LastResidual)
	if s.Windows != driftWindows {
		t.Fatalf("completed %d windows, want %d", s.Windows, driftWindows)
	}
	if s.Alarms == 0 {
		t.Fatalf("workload shift raised no drift alarm: %+v", s)
	}
	// The hotspot fits in the buffer, so post-shift windows observe far
	// fewer misses than predicted: the drift is on the negative side.
	if s.LastResidual > -0.5 {
		t.Errorf("last (hot) window residual %+.3f, want strongly negative", s.LastResidual)
	}
	// The same seeded scenario reproduces the same drift state bit for
	// bit.
	if again := runDrift(t, dm, pred, true).status; !reflect.DeepEqual(s, again) {
		t.Errorf("monitored run not deterministic:\n%+v\n%+v", s, again)
	}
}

// TestDriftSilentOnStationaryWorkload is the control: with no shift the
// model keeps describing the pool and the detector must stay quiet.
func TestDriftSilentOnStationaryWorkload(t *testing.T) {
	dm, pred := driftTree(t)
	s := runDrift(t, dm, pred, false).status
	t.Logf("stationary: %d alarms, max|residual| %.3f", s.Alarms, s.MaxAbsResidual)
	if s.Windows != driftWindows {
		t.Fatalf("completed %d windows, want %d", s.Windows, driftWindows)
	}
	if s.Alarms != 0 {
		t.Errorf("stationary workload alarmed %d times: %+v", s.Alarms, s)
	}
	if s.MaxAbsResidual >= 0.5 {
		t.Errorf("stationary max|residual| %.3f, want the model to track the pool", s.MaxAbsResidual)
	}
}

// TestMonitorNeverChangesResults: attaching the metrics mirror and the
// monitor leaves the pool's accounting and every query's result
// untouched, with and without the shift.
func TestMonitorNeverChangesResults(t *testing.T) {
	dm, pred := driftTree(t)
	for _, shift := range []bool{false, true} {
		bare := runDrift(t, dm, nil, shift)
		monitored := runDrift(t, dm, pred, shift)
		monitored.status = Status{}
		if !reflect.DeepEqual(bare, monitored) {
			t.Errorf("shift %v: the monitor changed the run:\n bare      %+v\n monitored %+v", shift, bare, monitored)
		}
	}
}
