package cpu_test

// Replay exactness: a core that replays its unchanged stalled ticks and
// skips Submit for a target the offload port refused this tick must
// give the same run as one that ticks every stage in full — equal
// cycles and an equal counter registry, engine counters included.

import (
	"fmt"
	"testing"

	"github.com/hipe-sim/hipe/internal/cpu"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

// runPlan runs p over tab on a fresh default machine and returns its
// cycles and counter registry.
func runPlan(t *testing.T, tab *db.Table, p query.Plan, replay bool) (uint64, string) {
	t.Helper()
	mc := machine.Default()
	mc.ImageBytes = db.ImageBytesFor(tab.N)
	m, err := machine.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	cpu.SetReplay(m.CPU, replay)
	w, err := query.Prepare(m, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	cycles := uint64(m.Run(w.Stream()))
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	return cycles, m.Registry.String()
}

func TestReplayMatchesFullTicks(t *testing.T) {
	q := db.DefaultQ06()
	type cell struct {
		tuples int
		plan   query.Plan
	}
	cells := []cell{
		// The plans of TestResetMatchesFreshMachine (internal/sweep).
		{1024, query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}},
		{1024, query.Plan{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}},
		{1024, query.Plan{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q}},
		{1024, query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}},
		{1024, query.Plan{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 1, Q: q}},
		{1024, query.Plan{Arch: query.HIVE, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q}},
		{1024, query.Plan{Arch: query.HMC, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q}},
		// Cells whose stalled ticks wait on L1 MSHRs that prefetch fills
		// free: replay is exact here only through the L1's version.
		{4096, query.Plan{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q}},
		{4096, query.Plan{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 1, Q: q}},
		{4096, query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}},
		{4096, query.Plan{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 8, Q: q}},
		{4096, query.Plan{Arch: query.HIVE, Strategy: query.TupleAtATime, OpSize: 256, Unroll: 8, Q: q}},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%d/%s", c.tuples, c.plan), func(t *testing.T) {
			tab := db.GenerateMemo(c.tuples, 42)
			offCycles, offReg := runPlan(t, tab, c.plan, false)
			onCycles, onReg := runPlan(t, tab, c.plan, true)
			if onCycles != offCycles {
				t.Fatalf("replay on: %d cycles, off: %d", onCycles, offCycles)
			}
			if onReg != offReg {
				t.Fatalf("counters diverge with replay on\n--- on ---\n%s\n--- off ---\n%s", onReg, offReg)
			}
		})
	}
}
