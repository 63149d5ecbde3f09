package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// FlightRecorder retains one structured record per query — ID,
// duration, result count, and per-level node-access/fault/write-back
// attribution — in a fixed ring of the most recent queries plus a
// small board of the most expensive ones seen so far. It answers "what
// did the slow queries actually touch" after the fact, which a metrics
// registry (aggregates only) cannot.
//
// A nil *FlightRecorder is the disabled recorder: Begin returns a nil
// *ActiveQuery whose methods are allocation-free no-ops, so
// instrumented code calls it unconditionally.
type FlightRecorder struct {
	mu      sync.Mutex
	recent  []QueryRecord // ring, oldest first once full
	start   int           // ring head index
	full    bool
	top     []QueryRecord // most expensive, sorted by costLess
	topCap  int
	nextID  uint64
	total   uint64
	dropped uint64
	clock   func() time.Time
}

// Default retention for the flight recorder ring and expensive-query board.
const (
	DefaultFlightRecent = 256
	DefaultFlightTop    = 16
)

// NewFlightRecorder returns an enabled recorder retaining the last
// `recent` queries and the `top` most expensive ones (non-positive
// arguments select the defaults).
func NewFlightRecorder(recent, top int) *FlightRecorder {
	if recent <= 0 {
		recent = DefaultFlightRecent
	}
	if top <= 0 {
		top = DefaultFlightTop
	}
	return &FlightRecorder{
		recent: make([]QueryRecord, 0, recent),
		top:    make([]QueryRecord, 0, top),
		topCap: top,
		clock:  time.Now,
	}
}

// LevelStat is the per-tree-level access attribution of one query.
type LevelStat struct {
	Level      int `json:"level"`
	Accesses   int `json:"accesses"`
	Misses     int `json:"misses"`
	WriteBacks int `json:"write_backs"`
}

// QueryRecord is one finished query as retained by the recorder.
type QueryRecord struct {
	ID         uint64        `json:"id"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	Duration   time.Duration `json:"duration_ns"`
	Results    int           `json:"results"`
	Accesses   int           `json:"accesses"`
	Misses     int           `json:"misses"`
	WriteBacks int           `json:"write_backs"`
	Levels     []LevelStat   `json:"levels,omitempty"`
}

// ActiveQuery is an in-progress query handle. A nil handle (from a nil
// recorder) is inert and allocation-free.
type ActiveQuery struct {
	fr  *FlightRecorder
	rec QueryRecord
}

// Begin starts recording a query. On a nil recorder it returns nil,
// which every ActiveQuery method tolerates.
func (fr *FlightRecorder) Begin(name string) *ActiveQuery {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	fr.nextID++
	id := fr.nextID
	fr.mu.Unlock()
	return &ActiveQuery{fr: fr, rec: QueryRecord{ID: id, Name: name, Start: fr.clock()}}
}

// Access attributes one node access at the given tree level (level 0 is
// the root). hit reports whether the page was resident; writeBacks is
// how many dirty pages the access had to write back.
func (q *ActiveQuery) Access(level int, hit bool, writeBacks int) {
	if q == nil {
		return
	}
	q.rec.Accesses++
	if !hit {
		q.rec.Misses++
	}
	q.rec.WriteBacks += writeBacks
	for len(q.rec.Levels) <= level {
		q.rec.Levels = append(q.rec.Levels, LevelStat{Level: len(q.rec.Levels)})
	}
	ls := &q.rec.Levels[level]
	ls.Accesses++
	if !hit {
		ls.Misses++
	}
	ls.WriteBacks += writeBacks
}

// SetResults records how many results the query returned.
func (q *ActiveQuery) SetResults(n int) {
	if q == nil {
		return
	}
	q.rec.Results = n
}

// End finishes the query and commits it to the recorder.
func (q *ActiveQuery) End() {
	if q == nil {
		return
	}
	q.rec.Duration = q.fr.clock().Sub(q.rec.Start)
	q.fr.commit(q.rec)
}

// costLess orders records by expense: more misses first, then more
// accesses, then longer duration, then lower ID. The duration tiebreak
// comes last so that identical logical work ranks deterministically
// regardless of wall-clock jitter.
func costLess(a, b QueryRecord) bool {
	if a.Misses != b.Misses {
		return a.Misses > b.Misses
	}
	if a.Accesses != b.Accesses {
		return a.Accesses > b.Accesses
	}
	if a.Duration != b.Duration {
		return a.Duration > b.Duration
	}
	return a.ID < b.ID
}

func (fr *FlightRecorder) commit(r QueryRecord) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.total++
	if !fr.full && len(fr.recent) < cap(fr.recent) {
		fr.recent = append(fr.recent, r)
	} else {
		fr.full = true
		fr.dropped++
		fr.recent[fr.start] = r
		fr.start = (fr.start + 1) % len(fr.recent)
	}
	// Maintain the expensive-query board: insert in cost order, trim to cap.
	i := sort.Search(len(fr.top), func(i int) bool { return !costLess(fr.top[i], r) })
	if i < fr.topCap {
		fr.top = append(fr.top, QueryRecord{})
		copy(fr.top[i+1:], fr.top[i:])
		fr.top[i] = r
		if len(fr.top) > fr.topCap {
			fr.top = fr.top[:fr.topCap]
		}
	}
}

// FlightSnapshot is a point-in-time copy of the recorder state.
type FlightSnapshot struct {
	Queries uint64        `json:"queries"`
	Dropped uint64        `json:"dropped"`
	Recent  []QueryRecord `json:"recent"`
	Top     []QueryRecord `json:"top"`
}

// Snapshot copies out the retained records: Recent in completion order
// (oldest first), Top in cost order. Nil recorders return an empty
// snapshot.
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	if fr == nil {
		return FlightSnapshot{}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	snap := FlightSnapshot{Queries: fr.total, Dropped: fr.dropped}
	if fr.full {
		snap.Recent = make([]QueryRecord, 0, len(fr.recent))
		snap.Recent = append(snap.Recent, fr.recent[fr.start:]...)
		snap.Recent = append(snap.Recent, fr.recent[:fr.start]...)
	} else {
		snap.Recent = append([]QueryRecord(nil), fr.recent...)
	}
	snap.Top = append([]QueryRecord(nil), fr.top...)
	return snap
}

// WriteJSON renders the snapshot as one indented JSON object with a
// trailing newline. Nil recorders render an empty (but valid) dump.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	snap := fr.Snapshot()
	if snap.Recent == nil {
		snap.Recent = []QueryRecord{}
	}
	if snap.Top == nil {
		snap.Top = []QueryRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// WriteText renders a short human-readable report: retention summary
// plus the expensive-query board, one line per query with its per-level
// attribution. Durations are rounded for readability; pass a zero round
// to keep full precision. Nil recorders write nothing.
func (fr *FlightRecorder) WriteText(w io.Writer, round time.Duration) error {
	if fr == nil {
		return nil
	}
	snap := fr.Snapshot()
	if _, err := fmt.Fprintf(w, "flight recorder: %d queries, %d retained, %d dropped\n",
		snap.Queries, len(snap.Recent), snap.Dropped); err != nil {
		return err
	}
	if len(snap.Top) > 0 {
		if _, err := fmt.Fprintln(w, "most expensive:"); err != nil {
			return err
		}
	}
	for _, r := range snap.Top {
		d := r.Duration
		if round > 0 {
			d = d.Round(round)
		}
		var lv strings.Builder
		for i, ls := range r.Levels {
			if i > 0 {
				lv.WriteByte(' ')
			}
			fmt.Fprintf(&lv, "L%d:%d/%d", ls.Level, ls.Misses, ls.Accesses)
		}
		if _, err := fmt.Fprintf(w, "  #%-6d %-10s %12s  results=%-5d misses=%-3d accesses=%-3d writebacks=%-2d  %s\n",
			r.ID, r.Name, d, r.Results, r.Misses, r.Accesses, r.WriteBacks, lv.String()); err != nil {
			return err
		}
	}
	return nil
}
