// Package monitor compares the live buffer behavior of a running system
// against the paper's analytic prediction, online. The model (core)
// predicts steady-state disk accesses per query for a given policy and
// buffer size; the buffer layer (via obs) counts what actually happens.
// This package closes the loop: it consumes the obs counters in sliding
// windows of queries, computes the normalized model residual per window
// (total and per tree level), tracks an EWMA of the residual, and runs a
// two-sided CUSUM drift detector that raises an alarm when observed
// behavior departs from the model — the signature of a workload shift,
// a mis-sized buffer, or a policy mismatch. It is the measurement
// substrate for the ROADMAP self-tuning advisor: the advisor needs to
// know the model has stopped describing reality before re-planning.
//
// Contracts (inherited from the obs layer): a nil *Monitor is the
// disabled monitor — OnQuery and Rebase are allocation-free no-ops; an
// enabled monitor is race-safe; monitoring never changes query results,
// only observes counters the buffer layer already maintains.
package monitor

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"rtreebuf/internal/core"
	"rtreebuf/internal/obs"
)

// Prediction is a policy-matched model evaluation frozen at monitor
// construction: the expected disk accesses and node accesses per query,
// total and per tree level, for one (policy, buffer, pinning, sharding)
// configuration.
type Prediction struct {
	// Policy is the metrics label the buffer layer reports under
	// ("lru", "2q", "clockpro", ...).
	Policy string
	// Model names the analytic model the prediction came from.
	Model string

	BufferSize int
	PinLevels  int
	Shards     int

	// DiskPerQuery is the predicted steady-state EDT.
	DiskPerQuery float64
	// NodesPerQuery is the bufferless EPT (accesses, hit or miss).
	NodesPerQuery float64
	// LevelDisk and LevelNodes split the two by tree level, root first.
	LevelDisk  []float64
	LevelNodes []float64

	// BracketLo/BracketHi carry the Clock-Pro bounds when the policy
	// only has a bracket, not a point prediction (both zero otherwise).
	// DiskPerQuery is then the bracket's upper edge and residuals are
	// measured against it, so a Clock-Pro run that beats the LRU edge
	// shows as a negative residual rather than an alarm.
	BracketLo, BracketHi float64
}

// PredictionFor picks the analytic model matching the configured policy,
// pinning, and sharding — the same dispatch the CLIs use for their
// model-vs-measurement tables. Pinning analysis exists only for the LRU
// model; Clock-Pro is monitored against the upper edge of its bracket;
// CLOCK uses the LRU model (experiment ext-clock validates that); a
// sharded pool gets the per-shard partition model.
func PredictionFor(pred *core.Predictor, policy string, bufferSize, pinLevels, shards int) (Prediction, error) {
	p := Prediction{
		Policy:     policy,
		BufferSize: bufferSize,
		PinLevels:  pinLevels,
		Shards:     shards,
	}
	p.NodesPerQuery, p.LevelNodes = pred.NodesVisitedPerLevel()
	if policy == "" {
		p.Policy = "lru"
	}
	switch {
	case pinLevels > 0:
		var err error
		p.Model = "lru model (pinned)"
		p.DiskPerQuery, p.LevelDisk, err = pred.DiskAccessesPinnedPerLevel(bufferSize, pinLevels)
		if err != nil {
			return Prediction{}, err
		}
	case policy == "2q":
		p.Model = "2q renewal model"
		p.DiskPerQuery, p.LevelDisk = pred.DiskAccesses2QPerLevel(bufferSize)
	case policy == "clockpro":
		p.Model = "clockpro bracket upper edge"
		// The bracket has no per-level split of its own; the LRU split is
		// the monitored per-level reference (the bracket's upper edge).
		p.BracketLo, p.BracketHi, p.LevelDisk = pred.ClockProBoundsPerLevel(bufferSize)
		p.DiskPerQuery = p.BracketHi
	case shards > 1:
		p.Model = fmt.Sprintf("sharded(%d) lru model", shards)
		p.DiskPerQuery, p.LevelDisk = pred.DiskAccessesShardedPerLevel(bufferSize, shards)
	default:
		p.Model = "lru model"
		p.DiskPerQuery, p.LevelDisk = pred.DiskAccessesPerLevel(bufferSize)
	}
	return p, nil
}

// Config tunes the monitor's window and drift detector. The zero value
// selects the defaults.
type Config struct {
	// Window is how many queries one residual window spans.
	Window int
	// EWMAAlpha weights the newest window in the residual EWMA.
	EWMAAlpha float64
	// CUSUMK is the per-window slack (drift below it is absorbed);
	// CUSUMH is the alarm threshold on the accumulated statistic.
	CUSUMK, CUSUMH float64
	// ResidualFloor bounds the normalization denominator away from zero
	// so near-zero predictions don't blow tiny absolute errors up into
	// huge relative ones.
	ResidualFloor float64
}

// Defaults for Config's zero fields.
const (
	DefaultWindow        = 1000
	DefaultEWMAAlpha     = 0.2
	DefaultCUSUMK        = 0.25
	DefaultCUSUMH        = 1.0
	DefaultResidualFloor = 0.05
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = DefaultEWMAAlpha
	}
	if c.CUSUMK <= 0 {
		c.CUSUMK = DefaultCUSUMK
	}
	if c.CUSUMH <= 0 {
		c.CUSUMH = DefaultCUSUMH
	}
	if c.ResidualFloor <= 0 {
		c.ResidualFloor = DefaultResidualFloor
	}
	return c
}

// Monitor is the online residual monitor. It reads the buffer counters
// the metrics mirror already maintains (grabbing each handle once — the
// registry returns the same handle for the same identity, so reads are
// plain atomic loads) and publishes its own series into the same
// registry: model_residual{policy,level}, model_residual_ewma{policy},
// drift_alarm_total{policy}, monitor_windows_total{policy}, and the two
// CUSUM statistics.
type Monitor struct {
	cfg  Config
	pred Prediction

	// Inputs: the buffer layer's counters (cumulative, never reset).
	hits, misses           *obs.Counter
	levelHits, levelMisses []*obs.Counter

	// Outputs.
	residual    *obs.Gauge // level="all"
	levelResids []*obs.Gauge
	ewmaGauge   *obs.Gauge
	cusumPosG   *obs.Gauge
	cusumNegG   *obs.Gauge
	alarmsC     *obs.Counter
	windowsC    *obs.Counter

	// queries ticks the window boundary; Add is lock-free so OnQuery
	// stays cheap off-boundary.
	queries atomic.Uint64

	mu             sync.Mutex
	baseHits       uint64
	baseMisses     uint64
	baseLevelHits  []uint64
	baseLevelMiss  []uint64
	ewma           float64
	ewmaPrimed     bool
	pos, neg       float64
	windows        uint64
	alarms         uint64
	lastResidual   float64
	residualSum    float64
	maxAbsResidual float64
	lastObserved   float64
	levelResidVals []float64
}

// New builds a monitor for the given prediction over the registry the
// buffer metrics report into. A nil registry returns a nil (disabled)
// monitor, so call sites need no conditional wiring.
func New(reg *obs.Registry, pred Prediction, cfg Config) *Monitor {
	if reg == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	pol := obs.L("policy", pred.Policy)
	levels := len(pred.LevelDisk)
	m := &Monitor{
		cfg:            cfg,
		pred:           pred,
		hits:           reg.Counter("buffer_hits_total", pol),
		misses:         reg.Counter("buffer_misses_total", pol),
		residual:       reg.Gauge("model_residual", pol, obs.L("level", "all")),
		ewmaGauge:      reg.Gauge("model_residual_ewma", pol),
		cusumPosG:      reg.Gauge("model_cusum_pos", pol),
		cusumNegG:      reg.Gauge("model_cusum_neg", pol),
		alarmsC:        reg.Counter("drift_alarm_total", pol),
		windowsC:       reg.Counter("monitor_windows_total", pol),
		levelHits:      make([]*obs.Counter, levels),
		levelMisses:    make([]*obs.Counter, levels),
		levelResids:    make([]*obs.Gauge, levels),
		baseLevelHits:  make([]uint64, levels),
		baseLevelMiss:  make([]uint64, levels),
		levelResidVals: make([]float64, levels),
	}
	for lvl := 0; lvl < levels; lvl++ {
		l := obs.L("level", strconv.Itoa(lvl))
		m.levelHits[lvl] = reg.Counter("buffer_level_hits_total", pol, l)
		m.levelMisses[lvl] = reg.Counter("buffer_level_misses_total", pol, l)
		m.levelResids[lvl] = reg.Gauge("model_residual", pol, l)
	}
	return m
}

// Prediction returns the frozen model evaluation the monitor compares
// against (zero value on a nil monitor).
func (m *Monitor) Prediction() Prediction {
	if m == nil {
		return Prediction{}
	}
	return m.pred
}

// Rebase restarts the monitor's windows from the counters' current
// values — called after warm-up so the first window measures steady
// state, not the fill transient. Drift state (EWMA, CUSUM) is cleared.
func (m *Monitor) Rebase() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queries.Store(0)
	m.baseHits = m.hits.Value()
	m.baseMisses = m.misses.Value()
	for lvl := range m.levelHits {
		m.baseLevelHits[lvl] = m.levelHits[lvl].Value()
		m.baseLevelMiss[lvl] = m.levelMisses[lvl].Value()
	}
	m.ewma, m.ewmaPrimed = 0, false
	m.pos, m.neg = 0, 0
	m.windows, m.alarms = 0, 0
	m.lastResidual, m.residualSum, m.maxAbsResidual, m.lastObserved = 0, 0, 0, 0
	for i := range m.levelResidVals {
		m.levelResidVals[i] = 0
	}
}

// OnQuery counts one finished query and, at each window boundary,
// evaluates the window. Nil-safe and allocation-free when disabled;
// off-boundary it is one atomic add.
func (m *Monitor) OnQuery() {
	if m == nil {
		return
	}
	if q := m.queries.Add(1); q%uint64(m.cfg.Window) == 0 {
		m.tick()
	}
}

// residualOf normalizes observed-vs-predicted into a relative residual,
// with the denominator floored so near-zero predictions stay sane.
func (m *Monitor) residualOf(observed, predicted float64) float64 {
	return (observed - predicted) / math.Max(predicted, m.cfg.ResidualFloor)
}

// tick evaluates the window that just closed.
func (m *Monitor) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := float64(m.cfg.Window)

	curHits, curMisses := m.hits.Value(), m.misses.Value()
	dMiss := curMisses - m.baseMisses
	m.baseHits, m.baseMisses = curHits, curMisses

	observed := float64(dMiss) / w
	r := m.residualOf(observed, m.pred.DiskPerQuery)

	m.windows++
	m.lastResidual = r
	m.lastObserved = observed
	m.residualSum += r
	if a := math.Abs(r); a > m.maxAbsResidual {
		m.maxAbsResidual = a
	}
	if m.ewmaPrimed {
		m.ewma = m.cfg.EWMAAlpha*r + (1-m.cfg.EWMAAlpha)*m.ewma
	} else {
		m.ewma, m.ewmaPrimed = r, true
	}
	// Two-sided CUSUM on the normalized residual: pos accumulates
	// "worse than the model", neg "better than the model" (a workload
	// collapsing into the buffer is drift too). Alarm resets both sides
	// so sustained drift re-alarms once per excursion past the
	// threshold, not once per window.
	m.pos = math.Max(0, m.pos+r-m.cfg.CUSUMK)
	m.neg = math.Max(0, m.neg-r-m.cfg.CUSUMK)
	if m.pos > m.cfg.CUSUMH || m.neg > m.cfg.CUSUMH {
		m.alarms++
		m.alarmsC.Inc()
		m.pos, m.neg = 0, 0
	}

	for lvl := range m.levelMisses {
		cur := m.levelMisses[lvl].Value()
		d := cur - m.baseLevelMiss[lvl]
		m.baseLevelMiss[lvl] = cur
		m.baseLevelHits[lvl] = m.levelHits[lvl].Value()
		lr := m.residualOf(float64(d)/w, m.pred.LevelDisk[lvl])
		m.levelResidVals[lvl] = lr
		m.levelResids[lvl].Set(lr)
	}

	m.residual.Set(r)
	m.ewmaGauge.Set(m.ewma)
	m.cusumPosG.Set(m.pos)
	m.cusumNegG.Set(m.neg)
	m.windowsC.Inc()
}

// Status is a point-in-time copy of the monitor's drift state.
type Status struct {
	Prediction Prediction
	Window     int

	Queries uint64 // since the last Rebase
	Windows uint64 // completed windows

	LastObservedDisk float64 // disk accesses per query, last window
	LastResidual     float64
	MeanResidual     float64 // over all completed windows
	MaxAbsResidual   float64
	EWMA             float64
	CUSUMPos         float64
	CUSUMNeg         float64
	Alarms           uint64

	LevelResiduals []float64 // last window, root first
}

// Status snapshots the drift state (zero value on a nil monitor).
func (m *Monitor) Status() Status {
	if m == nil {
		return Status{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Prediction:       m.pred,
		Window:           m.cfg.Window,
		Queries:          m.queries.Load(),
		Windows:          m.windows,
		LastObservedDisk: m.lastObserved,
		LastResidual:     m.lastResidual,
		MaxAbsResidual:   m.maxAbsResidual,
		EWMA:             m.ewma,
		CUSUMPos:         m.pos,
		CUSUMNeg:         m.neg,
		Alarms:           m.alarms,
		LevelResiduals:   append([]float64(nil), m.levelResidVals...),
	}
	if m.windows > 0 {
		s.MeanResidual = m.residualSum / float64(m.windows)
	}
	return s
}

// WriteText renders the -monitor report: the prediction being tracked,
// the residual statistics, and the per-level residuals of the last
// window. Nil monitors write nothing.
func (m *Monitor) WriteText(w io.Writer) error {
	if m == nil {
		return nil
	}
	s := m.Status()
	if _, err := fmt.Fprintf(w, "model monitor: %s (policy=%s buffer=%d", s.Prediction.Model,
		s.Prediction.Policy, s.Prediction.BufferSize); err != nil {
		return err
	}
	if s.Prediction.PinLevels > 0 {
		if _, err := fmt.Fprintf(w, " pin=%d", s.Prediction.PinLevels); err != nil {
			return err
		}
	}
	if s.Prediction.Shards > 1 {
		if _, err := fmt.Fprintf(w, " shards=%d", s.Prediction.Shards); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, ")\n  predicted disk/query: %.4f", s.Prediction.DiskPerQuery); err != nil {
		return err
	}
	if s.Prediction.BracketHi > s.Prediction.BracketLo {
		if _, err := fmt.Fprintf(w, "  (bracket [%.4f, %.4f])",
			s.Prediction.BracketLo, s.Prediction.BracketHi); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n  windows: %d x %d queries (%d queries since rebase)\n",
		s.Windows, s.Window, s.Queries); err != nil {
		return err
	}
	if s.Windows == 0 {
		_, err := fmt.Fprintln(w, "  no completed windows yet")
		return err
	}
	if _, err := fmt.Fprintf(w,
		"  observed disk/query (last window): %.4f\n"+
			"  residual: last %+.3f  mean %+.3f  max|r| %.3f  ewma %+.3f\n"+
			"  cusum: pos %.3f neg %.3f (k=%.2f h=%.2f)  drift alarms: %d\n",
		s.LastObservedDisk, s.LastResidual, s.MeanResidual, s.MaxAbsResidual, s.EWMA,
		s.CUSUMPos, s.CUSUMNeg, m.cfg.CUSUMK, m.cfg.CUSUMH, s.Alarms); err != nil {
		return err
	}
	for lvl, lr := range s.LevelResiduals {
		if _, err := fmt.Fprintf(w, "  level %d residual: %+.3f (model %.4f/query)\n",
			lvl, lr, s.Prediction.LevelDisk[lvl]); err != nil {
			return err
		}
	}
	return nil
}
