package analysis

import (
	"strings"
	"testing"
)

// TestDetermCheckFixture routes the three classic nondeterminism sources
// into a result root — a map range two calls deep, a wall-clock read, and
// the global rand stream — while the seeded-stream sibling stays silent.
func TestDetermCheckFixture(t *testing.T) {
	a := &Analyzer{
		Name: "determcheck",
		CheckModule: func(m *Module) []Finding {
			return checkDeterm(m, []RootSpec{
				{Path: "fixture/TestDetermCheckFixture/simx", Name: "Run*"},
			})
		},
	}
	runModuleFixture(t, a, []fixtureFile{
		{
			path: "fixture/TestDetermCheckFixture/helper",
			src: `package helper

func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // WANT
		out = append(out, k)
	}
	return out
}
`,
		},
		{
			path: "fixture/TestDetermCheckFixture/simx",
			src: `package simx

import (
	"math/rand/v2"
	"time"

	"fixture/TestDetermCheckFixture/helper"
)

func RunTainted(m map[string]int) []string {
	return helper.Keys(m)
}

func RunClocked() int64 {
	return time.Now().UnixNano() // WANT
}

func RunGlobalRand() float64 {
	return rand.Float64() // WANT
}

func RunSeeded(seed, replica uint64) float64 {
	r := rand.New(rand.NewPCG(seed, replica))
	return r.Float64()
}

func unrooted(m map[string]int) []string {
	return helper.Keys(m)
}
`,
		},
	})
}

// TestDetermRootsExist guards the determcheck root list against silent
// rot, exactly as TestPureRootsExist does for iopurity.
func TestDetermRootsExist(t *testing.T) {
	g := loadRepoModule(t).Graph
	for _, spec := range DetermRoots() {
		if len(g.Resolve(spec)) == 0 {
			t.Errorf("determcheck root spec %s matches no function in the repository", spec)
		}
	}
}

// TestDetermFactRealRepo pins the nondet fact boundary in the real tree:
// the simulator and the obs exporters are fact-free (seeded PCG streams
// and the deterministic registry order keep them so), while the timing
// sidecar and the flight recorder's constructor — by design outside the
// root set — do carry it.
func TestDetermFactRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph
	for _, name := range []string{"sim.Run", "sim.RunSource", "sim.TraceWarmup", "obs.WriteText", "obs.WriteJSON"} {
		if n := one(t, g, name); n.Facts&FactNondet != 0 {
			t.Errorf("%s facts = %s; determinism contract requires no nondet (chain: %s)",
				n, n.Facts, strings.Join(g.FactChain(n, FactNondet), "; "))
		}
	}
	// Positive controls: the fact machinery must actually fire where
	// wall-clock reads are intended.
	for _, name := range []string{"experiments.RunAllTimed", "obs.NewFlightRecorder"} {
		if n := one(t, g, name); n.Facts&FactNondet == 0 {
			t.Errorf("%s facts = %s, want nondet (time.Now is by design there)", n, n.Facts)
		}
	}
}
