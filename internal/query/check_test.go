package query

// Runtime-check pins: every plan family that cross-checks engine
// results at runtime must notice a wrong result. Nothing else in the
// suite feeds an engine a broken instruction, so a checker that counted
// checks but never compared would pass every other test.

import (
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
)

// checkedPlans is one plan of every family that checks engine results.
func checkedPlans() []Plan {
	q6 := func(arch Arch, s Strategy, fused bool) Plan {
		return Plan{Arch: arch, Strategy: s, Fused: fused, OpSize: 256, Unroll: 8, Q: db.DefaultQ06()}
	}
	q1 := func(arch Arch, s Strategy) Plan {
		return Plan{Arch: arch, Strategy: s, OpSize: 256, Unroll: 8, Kind: Q1Agg, Q1: db.DefaultQ01()}
	}
	return []Plan{
		q6(HMC, TupleAtATime, false), q6(HMC, ColumnAtATime, false),
		q1(HMC, TupleAtATime), q1(HMC, ColumnAtATime),
		q6(HIVE, TupleAtATime, false), q1(HIVE, TupleAtATime),
		q6(HIVE, ColumnAtATime, false), q6(HIVE, ColumnAtATime, true), q1(HIVE, ColumnAtATime),
		q6(HIPE, ColumnAtATime, false),
	}
}

// oppositeCmp maps each compare to its complement, so a corrupted
// CmpRead returns every mask bit flipped.
var oppositeCmp = map[isa.ALUKind]isa.ALUKind{
	isa.CmpEQ: isa.CmpNE, isa.CmpNE: isa.CmpEQ,
	isa.CmpLT: isa.CmpGE, isa.CmpGE: isa.CmpLT,
	isa.CmpLE: isa.CmpGT, isa.CmpGT: isa.CmpLE,
}

// corruptStream hands out a plan's µops with every checked result
// broken: each CmpRead compares the opposite way, and each VMaskStore
// stores register 0, a data register whose lanes hold column values
// rather than a lane mask.
type corruptStream struct {
	s         Stream
	corrupted int
}

func (c *corruptStream) Next() (isa.MicroOp, bool) {
	u, ok := c.s.Next()
	if !ok || u.Class != isa.Offload {
		return u, ok
	}
	in := *u.Offload
	switch in.Op {
	case isa.CmpRead:
		in.ALU = oppositeCmp[in.ALU]
	case isa.VMaskStore:
		in.Src1 = 0
	default:
		return u, ok
	}
	c.corrupted++
	u.Offload = &in
	return u, ok
}

// TestRuntimeChecksCatchWrongResults runs every checking plan family
// with its checked instructions corrupted and requires the runtime
// checks to count mismatches and Verify to report them.
func TestRuntimeChecksCatchWrongResults(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	for _, p := range checkedPlans() {
		t.Run(p.String(), func(t *testing.T) {
			m := testMachine(t)
			w, err := Prepare(m, tab, p)
			if err != nil {
				t.Fatal(err)
			}
			cs := &corruptStream{s: w.Stream()}
			m.Run(cs)
			if cs.corrupted == 0 {
				t.Fatal("the plan emitted no CmpRead or VMaskStore")
			}
			if w.Mismatches() < 1 {
				t.Fatalf("%d corrupted instructions, %d checks, no mismatch", cs.corrupted, w.Checked())
			}
			err = w.Verify()
			if err == nil || !strings.Contains(err.Error(), "runtime result checks failed") {
				t.Fatalf("Verify() = %v, want the runtime-check failure", err)
			}
		})
	}
}

// firstExpect is a checker that forwards to the workload and records
// the expectation offset of the first instruction reported.
type firstExpect struct {
	w   *Workload
	off int
}

func (f *firstExpect) Check(inst *isa.OffloadInst, result []byte) {
	if f.off < 0 {
		f.off = int(inst.Expect)
	}
	f.w.Check(inst, result)
}

// TestFlippedExpectationFailsOnce flips one bit of one expectation that
// a run checks and requires exactly that check to fail: each checked
// instruction names its own expectation, and nothing else reads it.
func TestFlippedExpectationFailsOnce(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	for _, p := range checkedPlans() {
		t.Run(p.String(), func(t *testing.T) {
			m := testMachine(t)
			w, err := Prepare(m, tab, p)
			if err != nil {
				t.Fatal(err)
			}
			first := &firstExpect{w: w, off: -1}
			m.SetChecker(first)
			m.Run(w.Stream())
			if err := w.Verify(); err != nil || first.off < 0 {
				t.Fatalf("clean run: Verify() = %v, first checked expectation %d", err, first.off)
			}

			m = testMachine(t)
			if w, err = Prepare(m, tab, p); err != nil {
				t.Fatal(err)
			}
			w.expect[first.off] ^= 1
			m.Run(w.Stream())
			if w.Mismatches() != 1 {
				t.Fatalf("%d mismatches of %d checks, want exactly 1", w.Mismatches(), w.Checked())
			}
			if err := w.Verify(); err == nil || !strings.Contains(err.Error(), "1 of") {
				t.Fatalf("Verify() = %v, want one failed runtime check", err)
			}
		})
	}
}

// TestVerifyCatchesWrongArtifacts breaks one memory artifact of a clean
// run per plan and requires Verify to fail and name it: one bit of the
// final bitmask region, one lane of an accumulator, or — for the plans
// whose only artifacts are runtime checks — a run that never happened.
func TestVerifyCatchesWrongArtifacts(t *testing.T) {
	tab := db.GenerateMemo(1024, 42)
	q6 := func(arch Arch, s Strategy, fused, agg bool) Plan {
		return Plan{Arch: arch, Strategy: s, Fused: fused, Aggregate: agg, OpSize: 256, Unroll: 8, Q: db.DefaultQ06()}
	}
	q1 := func(arch Arch, s Strategy) Plan {
		return Plan{Arch: arch, Strategy: s, OpSize: 256, Unroll: 8, Kind: Q1Agg, Q1: db.DefaultQ01()}
	}
	const (
		flipMask = iota // flip bit 0 of the final bitmask region
		flipAcc         // flip bit 0 of the first accumulator's lane 0
		noRun           // verify a workload whose stream never ran
	)
	for _, tc := range []struct {
		p    Plan
		how  int
		want string
	}{
		{q6(HIVE, ColumnAtATime, false, false), flipMask, "final bitmask differs"},
		{q6(HIVE, ColumnAtATime, true, false), flipMask, "final bitmask differs"},
		{q1(HIVE, ColumnAtATime), flipMask, "bitmask differs"},
		{q6(HIPE, ColumnAtATime, false, false), flipMask, "final bitmask differs"},
		{q6(HIPE, ColumnAtATime, false, true), flipAcc, "in-memory revenue"},
		{q1(HIVE, ColumnAtATime), flipAcc, "group 0 count"},
		{q1(HIPE, ColumnAtATime), flipAcc, "group 0 count"},
		{q6(HMC, TupleAtATime, false, false), noRun, "no runtime checks ran"},
		{q6(HMC, ColumnAtATime, false, false), noRun, "no runtime checks ran"},
		{q1(HMC, TupleAtATime), noRun, "no runtime checks ran"},
		{q1(HMC, ColumnAtATime), noRun, "no runtime checks ran"},
		{q6(HIVE, TupleAtATime, false, false), noRun, "no runtime checks ran"},
		{q1(HIVE, TupleAtATime), noRun, "no runtime checks ran"},
	} {
		name := goldenKey(tc.p) + "/" + [...]string{"mask", "acc", "norun"}[tc.how]
		t.Run(name, func(t *testing.T) {
			m := testMachine(t)
			w, err := Prepare(m, tab, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if tc.how != noRun {
				m.Run(w.Stream())
				if err := w.Verify(); err != nil {
					t.Fatalf("clean run: %v", err)
				}
			}
			switch tc.how {
			case flipMask:
				m.Image[w.FinalMask] ^= 1
			case flipAcc:
				m.Image[w.AccRegion] ^= 1
			}
			if err := w.Verify(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify() = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
