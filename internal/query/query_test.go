package query

import (
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/machine"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	return imageMachine(t, 8<<20)
}

// imageMachine builds a test machine whose image holds imageBytes.
func imageMachine(t *testing.T, imageBytes uint64) *machine.Machine {
	t.Helper()
	cfg := machine.Default()
	cfg.ImageBytes = imageBytes
	cfg.DRAM.RefreshInterval = 0 // deterministic small-run timings
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runPlan(t *testing.T, tab *db.Table, p Plan) (*Workload, uint64) {
	t.Helper()
	m := testMachine(t)
	w, err := Prepare(m, tab, p)
	if err != nil {
		t.Fatal(err)
	}
	cycles := uint64(m.Run(w.Stream()))
	if cycles == 0 {
		t.Fatalf("%s: zero cycles", p)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	return w, cycles
}

func TestPlanValidate(t *testing.T) {
	good := []Plan{
		{Arch: X86, Strategy: TupleAtATime, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()},
		{Arch: HMC, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()},
		{Arch: HIVE, Strategy: TupleAtATime, OpSize: 16, Unroll: 1, Q: db.DefaultQ06()},
		{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 128, Unroll: 4, Q: db.DefaultQ06()},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%s rejected: %v", p, err)
		}
	}
	bad := []Plan{
		{Arch: X86, Strategy: TupleAtATime, OpSize: 128, Unroll: 1}, // x86 >64B
		{Arch: X86, Strategy: TupleAtATime, OpSize: 64, Unroll: 16}, // x86 >8x
		{Arch: HMC, Strategy: TupleAtATime, OpSize: 48, Unroll: 1},  // bad size
		{Arch: HMC, Strategy: TupleAtATime, OpSize: 64, Unroll: 64}, // bad unroll
		{Arch: HIPE, Strategy: TupleAtATime, OpSize: 64, Unroll: 1}, // hipe tuple
		{Arch: Arch(9), Strategy: TupleAtATime, OpSize: 64, Unroll: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32}
	if p.String() != "hive/column-at-a-time/256B/32x" {
		t.Fatalf("plan string = %q", p.String())
	}
}

func TestPrepareRejects(t *testing.T) {
	m := testMachine(t)
	if _, err := Prepare(m, &db.Table{N: 0}, Plan{Arch: X86, Strategy: TupleAtATime, OpSize: 64, Unroll: 1, Q: db.DefaultQ06()}); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := Prepare(m, db.Generate(100, 1), Plan{Arch: X86, Strategy: TupleAtATime, OpSize: 64, Unroll: 1, Q: db.DefaultQ06()}); err == nil {
		t.Fatal("non-multiple-of-64 table accepted")
	}
	if _, err := Prepare(m, db.Generate(128, 1), Plan{Arch: X86, Strategy: TupleAtATime, OpSize: 128, Unroll: 1, Q: db.DefaultQ06()}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

const testN = 1024

func TestX86TuplePlan(t *testing.T) {
	tab := db.Generate(testN, 3)
	for _, S := range []uint32{16, 64} {
		p := Plan{Arch: X86, Strategy: TupleAtATime, OpSize: S, Unroll: 4, Q: db.DefaultQ06()}
		runPlan(t, tab, p)
	}
}

func TestX86ColumnPlan(t *testing.T) {
	tab := db.Generate(testN, 3)
	p := Plan{Arch: X86, Strategy: ColumnAtATime, OpSize: 64, Unroll: 4, Q: db.DefaultQ06()}
	runPlan(t, tab, p)
}

func TestHMCTuplePlan(t *testing.T) {
	tab := db.Generate(testN, 4)
	for _, S := range []uint32{16, 256} {
		p := Plan{Arch: HMC, Strategy: TupleAtATime, OpSize: S, Unroll: 4, Q: db.DefaultQ06()}
		w, _ := runPlan(t, tab, p)
		if w.Checked() == 0 {
			t.Fatalf("%s: no runtime checks", p)
		}
	}
}

func TestHMCColumnPlan(t *testing.T) {
	tab := db.Generate(testN, 4)
	p := Plan{Arch: HMC, Strategy: ColumnAtATime, OpSize: 256, Unroll: 8, Q: db.DefaultQ06()}
	w, _ := runPlan(t, tab, p)
	if w.Checked() == 0 {
		t.Fatal("no runtime checks")
	}
}

func TestHIVETuplePlan(t *testing.T) {
	tab := db.Generate(testN, 5)
	for _, S := range []uint32{16, 256} {
		p := Plan{Arch: HIVE, Strategy: TupleAtATime, OpSize: S, Unroll: 2, Q: db.DefaultQ06()}
		w, _ := runPlan(t, tab, p)
		if w.Checked() == 0 {
			t.Fatalf("%s: no runtime checks", p)
		}
	}
}

func TestHIVEColumnPlan(t *testing.T) {
	tab := db.Generate(testN, 5)
	for _, U := range []int{1, 8} {
		p := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: U, Q: db.DefaultQ06()}
		w, _ := runPlan(t, tab, p)
		if w.Checked() == 0 {
			t.Fatalf("%s: no runtime checks", p)
		}
	}
}

func TestHIPEColumnPlan(t *testing.T) {
	tab := db.Generate(testN, 6)
	for _, U := range []int{1, 8, 32} {
		p := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: U, Q: db.DefaultQ06()}
		w, _ := runPlan(t, tab, p)
		if w.Checked() == 0 {
			t.Fatalf("%s: no runtime checks", p)
		}
	}
}

// HIPE on smaller op sizes squashes chunks whose shipdate window is
// empty; with uniform data and 16 B chunks (4 tuples) squashes are
// frequent, and the bitmask must still be exactly right.
func TestHIPESquashCorrectness(t *testing.T) {
	tab := db.Generate(testN, 7)
	p := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 16, Unroll: 8, Q: db.DefaultQ06()}
	w, _ := runPlan(t, tab, p)
	squashed := w.M.Registry.Scope("hipe").Get("squashed")
	if squashed == 0 {
		t.Fatal("16 B HIPE scan never squashed on uniform data")
	}
	saved := w.M.Registry.Scope("hipe").Get("squashed_dram_bytes")
	if saved == 0 {
		t.Fatal("no DRAM bytes saved by predication")
	}
}

// The faithfulness tripwire of the whole reproduction: all four
// architectures compute the same answer on the same data.
func TestAllArchitecturesAgree(t *testing.T) {
	tab := db.Generate(testN, 8)
	plans := []Plan{
		{Arch: X86, Strategy: ColumnAtATime, OpSize: 64, Unroll: 8, Q: db.DefaultQ06()},
		{Arch: HMC, Strategy: ColumnAtATime, OpSize: 256, Unroll: 16, Q: db.DefaultQ06()},
		{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 16, Q: db.DefaultQ06()},
		{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 16, Q: db.DefaultQ06()},
	}
	for _, p := range plans {
		w, cycles := runPlan(t, tab, p)
		t.Logf("%-32s %8d cycles, %d checks", p, cycles, w.Checked())
	}
}

// Unrolling must speed HIVE up dramatically (the Figure 3c effect).
func TestUnrollingSpeedsUpHIVE(t *testing.T) {
	tab := db.Generate(2048, 9)
	p1 := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 1, Q: db.DefaultQ06()}
	p32 := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 32, Q: db.DefaultQ06()}
	_, c1 := runPlan(t, tab, p1)
	_, c32 := runPlan(t, tab, p32)
	if c32*2 >= c1 {
		t.Fatalf("unroll 32 (%d cycles) not at least 2x faster than unroll 1 (%d)", c32, c1)
	}
}

// HIPE must beat HIVE when lock blocks are serialised (low unroll),
// because it needs one pass instead of three plus mask round trips.
func TestHIPEBeatsHIVEAtLowUnroll(t *testing.T) {
	tab := db.Generate(2048, 10)
	ph := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 1, Q: db.DefaultQ06()}
	pp := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 1, Q: db.DefaultQ06()}
	_, ch := runPlan(t, tab, ph)
	_, cp := runPlan(t, tab, pp)
	if cp >= ch {
		t.Fatalf("HIPE (%d) not faster than HIVE (%d) at unroll 1", cp, ch)
	}
}

// The in-memory aggregation extension: the whole of Query 06 — selection
// plus sum(l_extendedprice*l_discount) — executes inside the memory, and
// the accumulator must equal the reference revenue exactly.
func TestHIPEInMemoryAggregation(t *testing.T) {
	tab := db.Generate(2048, 11)
	for _, U := range []int{1, 32} {
		p := Plan{Arch: HIPE, Strategy: ColumnAtATime, OpSize: 256, Unroll: U,
			Aggregate: true, Q: db.DefaultQ06()}
		w, cycles := runPlan(t, tab, p)
		if w.Ref.Revenue == 0 {
			t.Fatal("degenerate workload: zero revenue")
		}
		t.Logf("aggregated plan %s: %d cycles, revenue %d", p, cycles, w.Ref.Revenue)
	}
	// Aggregation is HIPE-only.
	bad := Plan{Arch: HIVE, Strategy: ColumnAtATime, OpSize: 256, Unroll: 1,
		Aggregate: true, Q: db.DefaultQ06()}
	if bad.Validate() == nil {
		t.Fatal("aggregate accepted on HIVE")
	}
}
