package cost_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// profileSink keeps the profiled results reachable, so the calls under
// measurement cannot be optimised away.
var profileSink cost.Profile

// TestProfileForDoNotAllocatePerTuple pins ProfileFor's chunk-local
// scan from the outside: profiling a plan, directly or under an
// estimate-mode sweep leg, allocates the same bytes, and as often, at
// 65,536 rows as at 1,024. Only the plan's description and the profile
// itself are allocated; a liveness slice as long as the table would
// add 64 KB per call at the larger size.
func TestProfileForDoNotAllocatePerTuple(t *testing.T) {
	leg := sweep.Leg{Params: cost.DefaultParams(), Exec: sweep.ExecEstimate}
	plans := []query.Plan{
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()},
		{Arch: query.HMC, Strategy: query.TupleAtATime, OpSize: 256, Unroll: 8, Kind: query.Q1Agg, Q1: db.DefaultQ01()},
	}
	calls := []struct {
		name string
		run  func(tab *db.Table, p query.Plan)
	}{
		{"ProfileFor", func(tab *db.Table, p query.Plan) { profileSink = cost.ProfileFor(tab, p) }},
		{"Leg.Run", func(tab *db.Table, p query.Plan) {
			if _, err := leg.Run(tab, p); err != nil {
				t.Fatal(err)
			}
		}},
	}
	small, large := db.Generate(1024, 42), db.Generate(65536, 42)
	for _, c := range calls {
		for _, p := range plans {
			bs, as := allocated(func() { c.run(small, p) })
			bl, al := allocated(func() { c.run(large, p) })
			if bs != bl || as != al {
				t.Errorf("%s %s: %d B in %.0f allocations per call at %d rows, %d B in %.0f at %d rows",
					c.name, p, bs, as, small.N, bl, al, large.N)
			} else {
				t.Logf("%s %s: %d B in %.0f allocations per call at either size", c.name, p, bs, as)
			}
		}
	}
}

// allocated returns the bytes one call of run allocates, the least
// TotalAlloc growth over rounds of repeated calls divided by the call
// count, and its testing.AllocsPerRun count.
func allocated(run func()) (bytes uint64, allocs float64) {
	const rounds, calls = 3, 20
	allocs = testing.AllocsPerRun(calls, run)
	bytes = math.MaxUint64
	var before, after runtime.MemStats
	for range rounds {
		runtime.ReadMemStats(&before)
		for range calls {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return bytes, allocs
}
