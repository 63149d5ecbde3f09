package sim

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"rtreebuf/internal/core"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/monitor"
	"rtreebuf/internal/obs"
)

func TestHotspotPointsDomain(t *testing.T) {
	if _, err := NewHotspotPoints(geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.9}); err == nil {
		t.Error("empty hotspot accepted")
	}
	hot, err := NewHotspotPoints(geom.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.3, MaxY: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 7))
	for i := 0; i < 5000; i++ {
		p := hot.Next(rng)
		if !hot.Hot.ContainsPoint(p) {
			t.Fatalf("hotspot point %v outside %+v", p, hot.Hot)
		}
	}
	if hot.Describe() == "" {
		t.Error("empty description")
	}
	mbr := geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.6, MaxY: 0.7}
	if hot.HitRect(mbr) != mbr {
		t.Error("point workload hit rect must be the MBR itself")
	}
}

func TestShiftValidationAndSwitch(t *testing.T) {
	hot, err := NewHotspotPoints(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.2, MaxY: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShift(UniformPoints{}, hot, 0); err == nil {
		t.Error("shift point 0 accepted")
	}
	// Region queries extend hit rectangles; mixing them with a point
	// workload would invalidate the prepared geometry mid-run.
	if _, err := NewShift(UniformPoints{}, mustRegions(t, 0.1, 0.1), 100); err == nil {
		t.Error("shift between incompatible hit-rect geometries accepted")
	}

	const at = 50
	s, err := NewShift(UniformPoints{}, hot, at)
	if err != nil {
		t.Fatal(err)
	}
	if s.Describe() == "" {
		t.Error("empty description")
	}
	rng := rand.New(rand.NewPCG(9, 4))
	outsideBefore := 0
	for i := 1; i <= at; i++ {
		if !hot.Hot.ContainsPoint(s.Next(rng)) {
			outsideBefore++
		}
	}
	if outsideBefore == 0 {
		t.Error("pre-shift draws never left the hotspot; switch happened too early")
	}
	for i := 0; i < 200; i++ {
		if p := s.Next(rng); !hot.Hot.ContainsPoint(p) {
			t.Fatalf("post-shift draw %v outside the hotspot", p)
		}
	}
}

// driftFixture is the shared scenario: a real packed tree, a buffer too
// small for the full reachable set but comfortably larger than the
// hotspot's working set, and a monitor windowed so a 10-batch run yields
// exactly 10 windows — the first five stationary, the last five hot.
const (
	driftBuffer  = 60
	driftWarmup  = 2000
	driftBatch   = 2000
	driftBatches = 10
	driftWindow  = 2000
	driftShiftAt = driftWarmup + 5*driftWindow
	driftSeed    = 20240
)

func driftConfig(reg *obs.Registry, mon *monitor.Monitor) Config {
	return Config{
		BufferSize: driftBuffer,
		Batches:    driftBatches,
		BatchSize:  driftBatch,
		Warmup:     driftWarmup,
		Seed:       driftSeed,
		Metrics:    reg,
		Monitor:    mon,
	}
}

func driftMonitor(t *testing.T, levels [][]geom.Rect, reg *obs.Registry) *monitor.Monitor {
	t.Helper()
	pred := core.NewPredictor(levels, mustQM(t, 0, 0))
	p, err := monitor.PredictionFor(pred, "lru", driftBuffer, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return monitor.New(reg, p, monitor.Config{Window: driftWindow})
}

// TestDriftAlarmOnWorkloadShift is the monitor's end-to-end contract:
// a mid-run shift from uniform points to a small hotspot collapses the
// working set into the buffer, the observed miss rate departs from the
// frozen prediction, and the CUSUM detector alarms — deterministically,
// because the sim stream is seeded and windows tick on query counts.
func TestDriftAlarmOnWorkloadShift(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	hot, err := NewHotspotPoints(geom.Rect{MinX: 0, MinY: 0, MaxX: 0.2, MaxY: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	run := func() monitor.Status {
		shift, err := NewShift(UniformPoints{}, hot, driftShiftAt)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		mon := driftMonitor(t, levels, reg)
		if _, err := Run(levels, shift, driftConfig(reg, mon)); err != nil {
			t.Fatal(err)
		}
		return mon.Status()
	}

	s := run()
	if s.Windows != driftBatches {
		t.Fatalf("completed %d windows, want %d", s.Windows, driftBatches)
	}
	if s.Alarms == 0 {
		t.Fatalf("workload shift raised no drift alarm: %+v", s)
	}
	// The hotspot fits in the buffer, so post-shift windows observe far
	// fewer misses than predicted: the drift is on the negative side.
	if s.LastResidual > -0.5 {
		t.Errorf("last (hot) window residual %+.3f, want strongly negative", s.LastResidual)
	}

	// Determinism: the same seeded scenario reproduces the same drift
	// state bit for bit.
	if again := run(); !reflect.DeepEqual(s, again) {
		t.Errorf("monitored run not deterministic:\n%+v\n%+v", s, again)
	}
}

// TestDriftSilentOnStationaryWorkload is the control: with no shift the
// model keeps describing reality and the detector must stay quiet.
func TestDriftSilentOnStationaryWorkload(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	reg := obs.NewRegistry()
	mon := driftMonitor(t, levels, reg)
	if _, err := Run(levels, UniformPoints{}, driftConfig(reg, mon)); err != nil {
		t.Fatal(err)
	}
	s := mon.Status()
	if s.Windows != driftBatches {
		t.Fatalf("completed %d windows, want %d", s.Windows, driftBatches)
	}
	if s.Alarms != 0 {
		t.Errorf("stationary workload alarmed %d times: %+v", s.Alarms, s)
	}
	if s.MaxAbsResidual >= 0.5 {
		t.Errorf("stationary max|residual| %.3f, want the model to track the run", s.MaxAbsResidual)
	}
}

// TestMonitorNeverChangesResults extends the obs contract to the
// monitor: attaching one must leave every numeric result untouched.
func TestMonitorNeverChangesResults(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	plain, err := Run(levels, UniformPoints{}, driftConfig(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	monitored, err := Run(levels, UniformPoints{}, driftConfig(reg, driftMonitor(t, levels, reg)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, monitored) {
		t.Errorf("results differ with monitor attached:\n%+v\n%+v", plain, monitored)
	}
}

// TestMonitorConfigValidation pins the wiring rule: a monitor needs the
// registry its counters live in.
func TestMonitorConfigValidation(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	reg := obs.NewRegistry()
	mon := driftMonitor(t, levels, reg)

	noMetrics := driftConfig(reg, mon)
	noMetrics.Metrics = nil
	if _, err := Run(levels, UniformPoints{}, noMetrics); err == nil {
		t.Error("Monitor without Metrics accepted")
	}
	if _, err := Run(levels, UniformPoints{}, driftConfig(reg, mon)); err != nil {
		t.Errorf("Monitor with Metrics rejected: %v", err)
	}
}
