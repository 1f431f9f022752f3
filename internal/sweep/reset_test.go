package sweep

// Machine-reuse equivalence: a Reset machine must be indistinguishable
// from a freshly constructed one — same cycles, same energy audit, same
// full counter registry — for every architecture. This is the property
// that lets the worker pool and the serving layer recycle machines.
// Every run also checks the core's cycle conservation law.

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

func TestResetMatchesFreshMachine(t *testing.T) {
	cfg := Config{Tuples: 1024, Seed: 42}
	q := db.DefaultQ06()
	plans := []query.Plan{
		{Arch: query.X86, Strategy: query.ColumnAtATime, OpSize: 64, Unroll: 8, Q: q},
		{Arch: query.HMC, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
		{Arch: query.HIVE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Fused: true, Q: q},
		{Arch: query.HIPE, Strategy: query.ColumnAtATime, OpSize: 256, Unroll: 32, Q: q},
		{Arch: query.X86, Strategy: query.TupleAtATime, OpSize: 64, Unroll: 1, Q: q},
		// Both clock domains parked: the core waits on the sequencer.
		{Arch: query.HIVE, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q},
		// The core parked on a full HMC window, crediting its refusals.
		{Arch: query.HMC, Strategy: query.TupleAtATime, OpSize: 16, Unroll: 1, Q: q},
	}
	tab := db.GenerateMemo(cfg.Tuples, cfg.Seed)

	// Fresh machine per plan: the reference outcomes.
	fresh := make([]Result, len(plans))
	freshRegs := make([]string, len(plans))
	for i, p := range plans {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i], err = cfg.runOn(m, tab, p)
		if err != nil {
			t.Fatalf("fresh %s: %v", p, err)
		}
		checkActiveCycles(t, m, fresh[i])
		freshRegs[i] = m.Registry.String()
	}

	// One machine, Reset between plans — in two different orders, so a
	// leak that only shows under a particular predecessor is caught.
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}} {
		m, err := machine.New(cfg.machineConfig())
		if err != nil {
			t.Fatal(err)
		}
		for runIdx, i := range order {
			if runIdx > 0 {
				m.Reset()
			}
			got, err := cfg.runOn(m, tab, plans[i])
			if err != nil {
				t.Fatalf("reused %s: %v", plans[i], err)
			}
			checkActiveCycles(t, m, got)
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("plan %s on reused machine: %+v, fresh machine: %+v", plans[i], got, fresh[i])
			}
			if reg := m.Registry.String(); reg != freshRegs[i] {
				t.Fatalf("plan %s: registry diverges on reused machine\n--- reused ---\n%s\n--- fresh ---\n%s",
					plans[i], reg, freshRegs[i])
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
		w, err := query.Prepare(m, tab, plans[0])
		if err != nil {
			t.Fatal(err)
		}
		m.CPU.Start(w.Stream(), nil)
		m.Engine.RunLimit(5000) // abandon mid-flight
		m.Reset()
		got, err := cfg.runOn(m, tab, plans[1])
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
