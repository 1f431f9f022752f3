package sweep

// Machines outlive the calls that use them: every exact run draws from
// the process-wide machine pool, so a call may run on machines an
// earlier call, of any workload, left behind. These tests pin that the
// results cannot tell, and that a warm call builds no machine.

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

// mixedCells is one cell list over both workload families and both
// table orders: Q06 and Q01 plans of every architecture, column and
// tuple at a time, over a uniform and a date-clustered table.
func mixedCells(t *testing.T, tuples int) []Cell {
	t.Helper()
	cells, err := Grid{
		Archs:       []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE},
		Strategies:  []query.Strategy{query.ColumnAtATime, query.TupleAtATime},
		OpSizes:     []uint32{64},
		Unrolls:     []int{8},
		Queries:     []db.Q06{db.DefaultQ06()},
		Q1Queries:   []db.Q01{db.DefaultQ01()},
		Tuples:      []int{tuples},
		Seeds:       []uint64{42},
		Clustered:   []bool{false, true},
		NoiseDays:   10,
		SkipInvalid: true,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestPooledMachinesRepeatAcrossCalls runs one mixed cell list three
// times with counters at 1 and 2 workers. The first call runs on
// whatever the pool holds; a call with another machine configuration
// then drops the idle machines, so the second call builds fresh ones
// and the third reuses them. Every call must give the same results and
// counters.
func TestPooledMachinesRepeatAcrossCalls(t *testing.T) {
	const tuples = 1024
	cfg := Config{Tuples: tuples, Seed: 42}
	cells := mixedCells(t, tuples)
	other := cfg.machineFor(tuples)
	other.ImageBytes += 64 << 10
	var want *ResultSet
	for _, workers := range []int{1, 2} {
		for call := range 3 {
			if call == 1 {
				if _, err := RunCells(Config{Machine: &other}, cells[:1], Options{Workers: workers}); err != nil {
					t.Fatal(err)
				}
			}
			rs, err := RunCells(cfg, cells, Options{Workers: workers, Counters: true})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = rs
				continue
			}
			for i := range rs.Cells {
				got, w := rs.Cells[i], want.Cells[i]
				if got.Counters.String() != w.Counters.String() {
					t.Fatalf("%d workers, call %d, cell %d (%s): counters differ\n%s\nvs\n%s",
						workers, call, i, got.Cell, got.Counters, w.Counters)
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("%d workers, call %d, cell %d (%s): %+v, want %+v",
						workers, call, i, got.Cell, got.Result, w.Result)
				}
			}
		}
	}
}

// TestWarmRunCellsDoNotAllocateMachines pins the pool from the outside:
// a RunCells call repeated with one configuration builds no machine, so
// it allocates fewer bytes than one machine's image. It first warms one
// machine per worker on the whole cell list, so the pin holds whatever
// ran before and however the workers interleave.
func TestWarmRunCellsDoNotAllocateMachines(t *testing.T) {
	const tuples = 4096
	cfg := Config{Tuples: tuples, Seed: 42}
	cells := mixedCells(t, tuples)
	mc := cfg.machineFor(tuples)
	get := func() *machine.Machine {
		t.Helper()
		m, err := machine.Get(mc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, workers := range []int{1, 2} {
		ms := make([]*machine.Machine, workers)
		for i := range ms {
			ms[i] = get()
		}
		// Each machine in turn goes back to the pool last, so Get hands
		// it out first: a one-worker call runs every cell on it, growing
		// its event pools and lent block buffers (and building the
		// tables), and the next Get takes the same machine back.
		for i := range ms {
			machine.Put(ms[i])
			if _, err := RunCells(cfg, cells, Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			ms[i] = get()
		}
		for _, m := range ms {
			machine.Put(m)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunCells(cfg, cells, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= mc.ImageBytes {
			t.Errorf("%d workers: a warm RunCells of %d cells allocated %d B, no less than one machine's %d-byte image",
				workers, len(cells), got, mc.ImageBytes)
		} else {
			t.Logf("%d workers: a warm RunCells of %d cells allocated %d B (image %d B)",
				workers, len(cells), got, mc.ImageBytes)
		}
	}
}
