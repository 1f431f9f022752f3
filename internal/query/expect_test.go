package query

// Expectation-build pins: Prepare's word-wide build must equal the
// bit-by-bit reference in expect_ref_test.go byte for byte, build only
// regions a checked instruction names, fit every layout inside
// db.ImageBytesFor, refuse an image too small with an error, and
// allocate nothing per chunk.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// TestBoundBitsMatchesMatch1 checks the word-wide compare against the
// one-value one for every compare kind, over random values and both
// ends of the int32 range on either side of the immediate.
func TestBoundBitsMatchesMatch1(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	edges := []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, kind := range []isa.ALUKind{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpLE, isa.CmpGT, isa.CmpGE} {
		for _, imm := range append(edges, 5, 731) {
			b := Bound{kind, imm}
			vals := make([]int32, 64)
			for round := 0; round < 8; round++ {
				for i := range vals {
					switch i % 4 {
					case 0:
						vals[i] = edges[r.Intn(len(edges))]
					case 1:
						vals[i] = imm + int32(r.Intn(3)) - 1
					default:
						vals[i] = int32(r.Uint32())
					}
				}
				bits := boundBits(b, vals)
				for i, v := range vals {
					if got, want := bits>>i&1 != 0, match1(b, v); got != want {
						t.Fatalf("%s %d against %d: bit %t, want %t", kind, imm, v, got, want)
					}
				}
			}
		}
	}
}

// TestExpectationsMatchReference prepares every golden plan over both
// golden tables at 64, 256 and 4096 rows and requires every region
// Prepare built to equal the reference build's byte for byte, and the
// regions to fill the buffer exactly.
func TestExpectationsMatchReference(t *testing.T) {
	for _, n := range []int{64, 256, 4096} {
		m := imageMachine(t, db.ImageBytesFor(n))
		for _, set := range goldenSets() {
			tab := set.table(n)
			for _, p := range goldenPlans(set.q6, set.q1) {
				if p.ValidateFor(n) != nil {
					continue
				}
				m.Reset()
				w, err := Prepare(m, tab, p)
				if err != nil {
					t.Fatalf("%s over %d rows: %v", goldenKey(p)+set.suffix, n, err)
				}
				ref := refExpectations(w)
				regions := builtRegions(w, ref)
				size := w.regionBytes()
				if len(regions)*size != len(w.expect) {
					t.Errorf("%s over %d rows: %d regions of %d B, buffer of %d B",
						goldenKey(p)+set.suffix, n, len(regions), size, len(w.expect))
				}
				for _, r := range regions {
					if got, want := w.region(r.off), ref.expect[r.ref:][:size]; !bytes.Equal(got, want) {
						t.Errorf("%s over %d rows: %s region differs from the reference", goldenKey(p)+set.suffix, n, r.name)
					}
				}
			}
		}
	}
}

// TestEveryRegionIsChecked drains every golden plan's stream over both
// golden tables and requires every region Prepare built to be named by
// at least one checked instruction, and every checked instruction to
// name bytes inside the buffer.
func TestEveryRegionIsChecked(t *testing.T) {
	m := imageMachine(t, db.ImageBytesFor(goldenTuples))
	for _, set := range goldenSets() {
		tab := set.table(goldenTuples)
		for _, p := range goldenPlans(set.q6, set.q1) {
			m.Reset()
			w, err := Prepare(m, tab, p)
			if err != nil {
				t.Fatal(err)
			}
			regions := builtRegions(w, refExpectations(w))
			size := w.regionBytes()
			named := map[int]bool{}
			s := w.Stream()
			for u, ok := s.Next(); ok; u, ok = s.Next() {
				if in := u.Offload; in != nil && in.Check {
					if end := int(in.Expect) + int(isa.MaskBytes(in.Size)); end > len(w.expect) {
						t.Fatalf("%s: a checked %s names bytes up to %d of %d", goldenKey(p)+set.suffix, in.Op, end, len(w.expect))
					}
					named[int(in.Expect)/size] = true
				}
			}
			for _, r := range regions {
				if !named[int(r.off)/size] {
					t.Errorf("%s: %s region built, no checked instruction names it", goldenKey(p)+set.suffix, r.name)
				}
			}
		}
	}
}

// TestEveryPlanPreparesInsideImageBytesFor prepares every golden plan
// shape on a machine whose image is exactly db.ImageBytesFor(n): the
// bound must hold every layout at every table size.
func TestEveryPlanPreparesInsideImageBytesFor(t *testing.T) {
	set := goldenSets()[0]
	for _, n := range []int{64, 1024, 4096, 16384} {
		m := imageMachine(t, db.ImageBytesFor(n))
		tab := db.GenerateMemo(n, 42)
		for _, p := range goldenPlans(set.q6, set.q1) {
			if p.ValidateFor(n) != nil {
				continue
			}
			m.Reset()
			if _, err := Prepare(m, tab, p); err != nil {
				t.Errorf("%d rows, image %d B: %v", n, db.ImageBytesFor(n), err)
			}
		}
	}
}

// layoutEnd is the end of the last region a prepared workload laid out.
func layoutEnd(w *Workload) uint64 {
	var end uint64
	region := func(base mem.Addr, n uint64) { end = max(end, uint64(base)+n) }
	n := uint64(w.Table.N)
	if w.Plan.Strategy == TupleAtATime {
		region(w.NSM.Base, w.NSM.Bytes)
		for _, r := range w.rows {
			region(r.addr, 256)
		}
		region(w.FinalMask, n*db.TupleBytes/32)
		region(w.Materialize, n*db.TupleBytes)
		return end
	}
	for _, base := range w.DSM.ColBase {
		region(base, (n*db.ColumnWidth+255)&^255)
	}
	for _, base := range w.MaskBase {
		region(base, uint64(w.regionBytes()))
	}
	if w.Plan.Aggregate {
		region(w.AccRegion, isa.RegisterBytes)
	}
	if w.ValidRow != 0 {
		region(w.AccRegion, uint64(w.Desc.Groups*NumAggs)*isa.RegisterBytes)
		region(w.ValidRow, 256)
	}
	return end
}

// TestPrepareRefusesTooSmallImage prepares tuple and column plans of
// both query kinds on an image one byte short of their layout and on
// one exactly its size: the first must fail with an error naming both
// sizes, the second must succeed with its last region ending at the
// image's end.
func TestPrepareRefusesTooSmallImage(t *testing.T) {
	q6 := func(arch Arch, s Strategy, op uint32, agg bool) Plan {
		return Plan{Arch: arch, Strategy: s, OpSize: op, Unroll: 8, Aggregate: agg, Q: db.DefaultQ06()}
	}
	q1 := func(arch Arch, s Strategy, op uint32) Plan {
		return Plan{Arch: arch, Strategy: s, OpSize: op, Unroll: 8, Kind: Q1Agg, Q1: db.DefaultQ01()}
	}
	tab := db.GenerateMemo(4096, 42)
	for _, p := range []Plan{
		q6(X86, TupleAtATime, 64, false), q6(HMC, TupleAtATime, 16, false), q6(HIVE, TupleAtATime, 256, false),
		q1(HMC, TupleAtATime, 64), q1(HIVE, TupleAtATime, 32),
		q6(X86, ColumnAtATime, 64, false), q6(HIVE, ColumnAtATime, 16, false), q6(HIPE, ColumnAtATime, 256, true),
		q1(HMC, ColumnAtATime, 256), q1(HIVE, ColumnAtATime, 16), q1(HIPE, ColumnAtATime, 256),
	} {
		t.Run(goldenKey(p), func(t *testing.T) {
			need := (&Workload{Plan: p, Table: tab, Desc: p.Desc()}).layoutBytes()
			_, err := Prepare(imageMachine(t, need-1), tab, p)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("needs a %d-byte", need)) ||
				!strings.Contains(err.Error(), fmt.Sprintf("holds %d", need-1)) {
				t.Fatalf("image of %d B: Prepare() error = %v, want one naming %d B needed and %d B held", need-1, err, need, need-1)
			}
			w, err := Prepare(imageMachine(t, need), tab, p)
			if err != nil {
				t.Fatalf("image of exactly %d B: %v", need, err)
			}
			if end := layoutEnd(w); end != need {
				t.Fatalf("the layout ends at %d B, layoutBytes says %d", end, need)
			}
		})
	}
}

// TestPrepareAndVerifyDoNotAllocatePerChunk pins set-up and
// verification to the table's size, not its chunk count: for every
// golden plan shape, Prepare makes as many allocations at 4096 rows as
// at 1024, its expectation buffer is allocated once at its final size,
// and Verify of a clean run allocates nothing. The unroll depth changes
// neither Prepare nor Verify, so each shape runs once, at its deepest
// golden unroll, the quickest to simulate.
func TestPrepareAndVerifyDoNotAllocatePerChunk(t *testing.T) {
	set := goldenSets()[0]
	var plans []Plan
	shapes := map[Plan]int{} // a plan with Unroll 0 → its index in plans
	for _, p := range goldenPlans(set.q6, set.q1) {
		shape := p
		shape.Unroll = 0
		if k, ok := shapes[shape]; ok {
			plans[k].Unroll = max(plans[k].Unroll, p.Unroll)
			continue
		}
		shapes[shape] = len(plans)
		plans = append(plans, p)
	}
	allocs := map[int][]float64{}
	for _, n := range []int{1024, 4096} {
		m := imageMachine(t, db.ImageBytesFor(n))
		tab := db.GenerateMemo(n, 42)
		for _, p := range plans {
			m.Reset()
			var w *Workload
			var err error
			// Preparing again overwrites the same layout in the image.
			// AllocsPerRun floors the mean over its runs, so an
			// allocation the Go runtime now and then makes on its own
			// in the middle of one run does not count.
			a := testing.AllocsPerRun(3, func() { w, err = Prepare(m, tab, p) })
			if err != nil {
				t.Fatal(err)
			}
			if cap(w.expect) != len(w.expect) {
				t.Errorf("%s over %d rows: expectation buffer len %d, cap %d", goldenKey(p), n, len(w.expect), cap(w.expect))
			}
			m.Run(w.Stream())
			if v := testing.AllocsPerRun(3, func() { err = w.Verify() }); err != nil || v != 0 {
				t.Errorf("%s over %d rows: Verify() = %v with %v allocations, want nil with 0", goldenKey(p), n, err, v)
			}
			allocs[n] = append(allocs[n], a)
		}
	}
	for i, p := range plans {
		if allocs[1024][i] != allocs[4096][i] {
			t.Errorf("%s: Prepare allocates %v times over 1024 rows, %v over 4096", goldenKey(p), allocs[1024][i], allocs[4096][i])
		}
	}
}
