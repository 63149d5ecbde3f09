package analysis

import "testing"

func TestProbRangeFlagsRawArithmeticReturns(t *testing.T) {
	runFixture(t, checkProbRange, "probrange", `
package fixture

func AccessProb(w, h, qx, qy float64) float64 {
	return (w + qx) * (h + qy) // WANT
}

func overlapProb(a, b float64) float64 {
	return a / b // WANT
}

func hitRatio(hits, total float64) float64 {
	return hits / total // WANT
}
`)
}

func TestProbRangeFlagsArithmeticThroughLocals(t *testing.T) {
	runFixture(t, checkProbRange, "probrange", `
package fixture

func cornerProb(w, qx float64) float64 {
	p := w + qx
	return p // WANT
}

func chainedProb(w, qx float64) float64 {
	p := w * qx
	q := p
	return q // WANT
}
`)
}

func TestProbRangeAllowsClampedAndDelegated(t *testing.T) {
	runFixture(t, checkProbRange, "probrange", `
package fixture

import "math"

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

func minProb(w, h float64) float64 { return math.Min(w*h, 1) }

func helperProb(v float64) float64 { return clamp01(v * 2) }

func reassignedProb(w float64) float64 {
	p := w * 2
	p = math.Min(p, 1)
	return p
}

func constProb() float64 { return 1 }

func delegatedProb(w, h float64) float64 { return minProb(w, h) }

// scale is arithmetic but not probability-valued: the analyzer must not
// reach outside its naming contract.
func scale(v float64) float64 { return v * 2 }

func annotatedProb(w float64) float64 {
	return w * w //lint:allow probrange caller clamps; squaring a probability stays in range
}
`)
}

// TestProbRangeFollowsAccumulation: `p += w` is raw arithmetic on p, so
// an accumulated sum returned bare is flagged and a capped one is not.
func TestProbRangeFollowsAccumulation(t *testing.T) {
	runFixture(t, checkProbRange, "probrange", `
package fixture

import "math"

func sumProb(ws []float64) float64 {
	var p float64
	for _, w := range ws {
		p += w
	}
	return p // WANT
}

func cappedSumProb(ws []float64) float64 {
	var p float64
	for _, w := range ws {
		p += w
	}
	return math.Min(p, 1)
}
`)
}
