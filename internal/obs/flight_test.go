package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a clock that advances a fixed step per call.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	now := start
	return func() time.Time {
		t := now
		now = now.Add(step)
		return t
	}
}

func TestFlightRecorderNilIsInert(t *testing.T) {
	var fr *FlightRecorder
	q := fr.Begin("window")
	q.Access(0, true, 0)
	q.SetResults(3)
	q.End()
	snap := fr.Snapshot()
	if snap.Queries != 0 || len(snap.Recent) != 0 || len(snap.Top) != 0 {
		t.Errorf("nil recorder snapshot = %+v, want empty", snap)
	}
	var text strings.Builder
	if err := fr.WriteText(&text, 0); err != nil || text.Len() != 0 {
		t.Errorf("nil WriteText = (%q, %v), want empty and nil", text.String(), err)
	}
	var js strings.Builder
	if err := fr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal([]byte(js.String()), &dump); err != nil {
		t.Fatalf("nil recorder JSON invalid: %v", err)
	}
	if dump["queries"].(float64) != 0 {
		t.Errorf("nil recorder JSON dump not empty: %v", dump)
	}
}

// TestFlightRecorderDisabledZeroAlloc: the nil-recorder hot path must be
// allocation-free, like every other disabled obs surface.
func TestFlightRecorderDisabledZeroAlloc(t *testing.T) {
	var fr *FlightRecorder
	if allocs := testing.AllocsPerRun(1000, func() {
		q := fr.Begin("window")
		q.Access(1, false, 1)
		q.SetResults(2)
		q.End()
	}); allocs != 0 {
		t.Errorf("disabled flight recorder allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestFlightRecorderAttribution(t *testing.T) {
	fr := NewFlightRecorder(8, 4)
	fr.clock = fakeClock(time.Unix(0, 0), time.Second)
	q := fr.Begin("window")
	q.Access(0, true, 0)  // root hit
	q.Access(1, false, 2) // internal miss, two write-backs
	q.Access(2, false, 0) // leaf miss
	q.Access(2, true, 0)  // leaf hit
	q.SetResults(5)
	q.End()

	snap := fr.Snapshot()
	if snap.Queries != 1 || len(snap.Recent) != 1 {
		t.Fatalf("snapshot = %+v, want exactly one query", snap)
	}
	r := snap.Recent[0]
	if r.ID != 1 || r.Name != "window" || r.Results != 5 {
		t.Errorf("record header = %+v", r)
	}
	if r.Accesses != 4 || r.Misses != 2 || r.WriteBacks != 2 {
		t.Errorf("totals = accesses %d misses %d writebacks %d, want 4/2/2", r.Accesses, r.Misses, r.WriteBacks)
	}
	if r.Duration != time.Second {
		t.Errorf("duration = %v, want 1s (one clock step)", r.Duration)
	}
	want := []LevelStat{
		{Level: 0, Accesses: 1, Misses: 0, WriteBacks: 0},
		{Level: 1, Accesses: 1, Misses: 1, WriteBacks: 2},
		{Level: 2, Accesses: 2, Misses: 1, WriteBacks: 0},
	}
	if len(r.Levels) != len(want) {
		t.Fatalf("levels = %+v, want %+v", r.Levels, want)
	}
	for i := range want {
		if r.Levels[i] != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, r.Levels[i], want[i])
		}
	}
}

// TestFlightRecorderRingAndTop overflows the ring and checks that Recent
// keeps the newest records in order while Top keeps the most expensive
// ones regardless of age.
func TestFlightRecorderRingAndTop(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	fr.clock = fakeClock(time.Unix(0, 0), time.Millisecond)
	// Query i performs i misses; the most expensive are the earliest two
	// (9 and 8 misses) once we count down.
	for i := 10; i >= 1; i-- {
		q := fr.Begin("q")
		for m := 0; m < i; m++ {
			q.Access(0, false, 0)
		}
		q.End()
	}
	snap := fr.Snapshot()
	if snap.Queries != 10 || snap.Dropped != 6 {
		t.Errorf("queries=%d dropped=%d, want 10 and 6", snap.Queries, snap.Dropped)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent holds %d, want 4", len(snap.Recent))
	}
	// Ring keeps the newest four (IDs 7..10), oldest first.
	for i, r := range snap.Recent {
		if want := uint64(7 + i); r.ID != want {
			t.Errorf("recent[%d].ID = %d, want %d", i, r.ID, want)
		}
	}
	// Top keeps the two most expensive: the first two committed (10 and 9
	// misses), even though the ring has long evicted them.
	if len(snap.Top) != 2 {
		t.Fatalf("top holds %d, want 2", len(snap.Top))
	}
	if snap.Top[0].Misses != 10 || snap.Top[1].Misses != 9 {
		t.Errorf("top misses = %d, %d; want 10, 9", snap.Top[0].Misses, snap.Top[1].Misses)
	}
}

// TestFlightRecorderCostOrderDeterministic: ties on misses/accesses/
// duration break by ID, so equal logical work ranks reproducibly.
func TestFlightRecorderCostOrderDeterministic(t *testing.T) {
	fr := NewFlightRecorder(8, 4)
	fr.clock = func() time.Time { return time.Unix(0, 0) } // zero durations
	for i := 0; i < 6; i++ {
		q := fr.Begin("q")
		q.Access(0, false, 0)
		q.End()
	}
	snap := fr.Snapshot()
	for i, r := range snap.Top {
		if want := uint64(i + 1); r.ID != want {
			t.Errorf("top[%d].ID = %d, want %d (ID ascending on ties)", i, r.ID, want)
		}
	}
}

func TestFlightRecorderWriteText(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	fr.clock = fakeClock(time.Unix(0, 0), time.Millisecond)
	q := fr.Begin("window")
	q.Access(0, true, 0)
	q.Access(1, false, 0)
	q.SetResults(7)
	q.End()
	var b strings.Builder
	if err := fr.WriteText(&b, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"flight recorder: 1 queries", "most expensive:", "window", "results=7", "L1:1/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

// TestFlightRecorderConcurrency drives overlapping queries from many
// goroutines; run under -race this is the recorder's race test.
func TestFlightRecorderConcurrency(t *testing.T) {
	fr := NewFlightRecorder(32, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fr.Begin("q")
				q.Access(i%3, i%2 == 0, 0)
				q.End()
			}
		}()
	}
	wg.Wait()
	snap := fr.Snapshot()
	if snap.Queries != 8*200 {
		t.Errorf("recorded %d queries, want %d", snap.Queries, 8*200)
	}
	ids := map[uint64]bool{}
	for _, r := range snap.Recent {
		if ids[r.ID] {
			t.Errorf("duplicate query ID %d in ring", r.ID)
		}
		ids[r.ID] = true
	}
}
