package sweep

// Machine-reuse equivalence: a Reset machine must be indistinguishable
// from a freshly constructed one — same cycles, same energy audit, same
// full counter registry — for every architecture, Q06 and Q01 plans,
// and uniform and date-clustered tables. This is the property that lets
// every exact run draw its machine from the process-wide pool.
// Every run also checks the core's cycle conservation law.

import (
	"reflect"
	"slices"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

func TestResetMatchesFreshMachine(t *testing.T) {
	cfg := Config{Tuples: 1024, Seed: 42}
	q, q1 := db.DefaultQ06(), db.DefaultQ01()
	uniform := db.GenerateMemo(cfg.Tuples, cfg.Seed)
	// A date-ordered table: HIVE skips the chunks its filter empties and
	// HIPE squashes their loads, so a machine's state after such a run
	// differs from one after a uniform-table run.
	clustered := db.GenerateClusteredMemo(cfg.Tuples, cfg.Seed, 10)
	runs := []struct {
		p   query.Plan
		tab *db.Table
	}{
		{query.Plan{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q}, uniform},
		{query.Plan{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}, uniform},
		{query.Plan{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q}, uniform},
		{query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}, uniform},
		{query.Plan{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 1, Q: q}, uniform},
		// Both clock domains parked: the core waits on the sequencer.
		{query.Plan{Arch: query.HIVE, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q}, uniform},
		// The core parked on a full HMC window, crediting its refusals.
		{query.Plan{Arch: query.HMC, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q}, uniform},
		// Q01 aggregation: the engines' accumulators and group regions.
		{query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: q1}, uniform},
		{query.Plan{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: q1}, uniform},
		// Squashed loads and skipped chunks over the clustered table.
		{query.Plan{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q}, clustered},
		{query.Plan{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Kind: query.Q1Agg, Q1: q1}, clustered},
	}

	// Fresh machine per run: the reference outcomes.
	fresh := make([]Result, len(runs))
	freshRegs := make([]string, len(runs))
	for i, r := range runs {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i], err = cfg.runOn(m, r.tab, r.p)
		if err != nil {
			t.Fatalf("fresh %s: %v", r.p, err)
		}
		checkActiveCycles(t, m, fresh[i])
		freshRegs[i] = m.Registry.String()
	}
	if fresh[9].Squashed == 0 {
		t.Fatalf("HIPE over the clustered table squashed nothing: %+v", fresh[9])
	}

	// One machine, Reset between runs — in two different orders, so a
	// leak that only shows under a particular predecessor is caught: Q06
	// into Q01 and back, uniform into clustered and back.
	forward := make([]int, len(runs))
	for i := range forward {
		forward[i] = i
	}
	backward := slices.Clone(forward)
	slices.Reverse(backward)
	for _, order := range [][]int{forward, backward} {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for runIdx, i := range order {
			if runIdx > 0 {
				m.Reset()
			}
			got, err := cfg.runOn(m, runs[i].tab, runs[i].p)
			if err != nil {
				t.Fatalf("reused %s: %v", runs[i].p, err)
			}
			checkActiveCycles(t, m, got)
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("run %d (%s) on reused machine: %+v, fresh machine: %+v", i, runs[i].p, got, fresh[i])
			}
			if reg := m.Registry.String(); reg != freshRegs[i] {
				t.Fatalf("run %d (%s): registry diverges on reused machine\n--- reused ---\n%s\n--- fresh ---\n%s",
					i, runs[i].p, reg, freshRegs[i])
			}
		}
	}

	// Mid-run abandonment: resetting a machine whose simulation was cut
	// short (pending events dropped) must still restore equivalence.
	{
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		w, err := query.Prepare(m, uniform, runs[0].p)
		if err != nil {
			t.Fatal(err)
		}
		m.CPU.Start(w.Stream(), nil)
		m.Engine.RunLimit(5000) // abandon mid-flight
		m.Reset()
		got, err := cfg.runOn(m, uniform, runs[1].p)
		if err != nil {
			t.Fatal(err)
		}
		checkActiveCycles(t, m, got)
		if !reflect.DeepEqual(got, fresh[1]) {
			t.Fatalf("after mid-run reset: %+v, fresh: %+v", got, fresh[1])
		}
	}
}

// checkActiveCycles asserts the core's cycle conservation law: the core
// counts one active cycle per tick from its start through its finishing
// tick, fired or skipped, so cpu0.active_cycles is the run's cycles
// plus one.
func checkActiveCycles(t *testing.T, m *machine.Machine, r Result) {
	t.Helper()
	if got, _ := m.Registry.Lookup("cpu0.active_cycles"); got != r.Cycles+1 {
		t.Fatalf("plan %s: cpu0.active_cycles = %d, want cycles + 1 = %d", r.Plan, got, r.Cycles+1)
	}
}
