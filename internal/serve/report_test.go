package serve

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestFormatCyclesMatchesFormatFloat: the integer fast path prints
// exactly what strconv.FormatFloat(x, 'f', 0, 64) prints — signed zero,
// halves rounded to even, the 2^53 boundary, huge, negative and
// non-finite values included.
func TestFormatCyclesMatchesFormatFloat(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 0.4, 0.5, 1.5, 2.5, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), -0.4, -2.5,
	}
	r := rand.New(rand.NewPCG(1, 2))
	for range 20_000 {
		xs = append(xs,
			r.Float64()*1e7,                  // the cycle range reports carry
			float64(r.Uint64N(1<<20))+0.5,    // exact halves
			math.Float64frombits(r.Uint64())) // any bit pattern
	}
	for _, x := range xs {
		if got, want := formatCycles(x), strconv.FormatFloat(x, 'f', 0, 64); got != want {
			t.Fatalf("formatCycles(%v) = %q, FormatFloat gives %q", x, got, want)
		}
	}
}
