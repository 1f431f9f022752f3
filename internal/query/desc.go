// The declarative query description layer: every plan compiles from a
// Desc — an ordered predicate pipeline plus, for aggregation queries,
// the group-by keys and aggregate list — instead of hard-wiring the
// TPC-H Query 06 shape into each generator. The Q06 descriptions
// compile to exactly the µop streams the hard-wired generators
// produced, so figure tables and sweep exports are unchanged; the Q01
// description is what opens the grouped-aggregation workload family.
package query

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// QueryKind selects the workload family a plan executes.
type QueryKind uint8

const (
	// Q6Select is the paper's TPC-H Query 06 selection scan (default).
	Q6Select QueryKind = iota
	// Q1Agg is the TPC-H Query 01-style grouped aggregation: filter on
	// shipdate, group by (returnflag, linestatus), accumulate per-group
	// COUNT/SUM over quantity, extendedprice and discounted revenue.
	Q1Agg
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case Q6Select:
		return "q6"
	case Q1Agg:
		return "q1"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Bound is one compare of a column value against an immediate.
type Bound struct {
	Kind isa.ALUKind
	Imm  int32
}

// Stage is one predicate column's evaluation: the AND of its bounds.
// Column-at-a-time plans evaluate stages in order, refining a running
// bitmask; tuple-at-a-time plans fold every stage into one pattern
// compare over the whole tuple.
type Stage struct {
	Col    int
	Bounds []Bound
}

// Aggregates of the Q1 family, in accumulator order. Averages (the
// avg_qty/avg_price/avg_disc of Query 01) derive from the sums and
// counts at presentation time.
const (
	AggCount = iota
	AggQty
	AggPrice
	AggRevenue
	NumAggs
)

// aggNames index by Agg*.
var aggNames = [NumAggs]string{"count", "sum_qty", "sum_price", "sum_revenue"}

// AggName names an aggregate index (for exports and reports).
func AggName(a int) string { return aggNames[a] }

// Desc is the declarative description a plan compiles from.
type Desc struct {
	Kind   QueryKind
	Stages []Stage
	// GroupBy lists the group-key columns (empty for selection scans).
	GroupBy []int
	// Groups is the group cardinality of the GroupBy keys (0 for
	// selection scans). Aggregation plans keep one accumulator register
	// per (group, aggregate) pair.
	Groups int
}

// Grouped reports whether the description carries a group-by clause.
func (d Desc) Grouped() bool { return len(d.GroupBy) > 0 }

// Desc compiles the plan's predicate into its declarative description.
func (p Plan) Desc() Desc {
	switch p.Kind {
	case Q1Agg:
		return Desc{
			Kind: Q1Agg,
			Stages: []Stage{
				{Col: db.FieldShipDate, Bounds: []Bound{{isa.CmpLE, p.Q1.ShipCut}}},
			},
			GroupBy: []int{db.FieldReturnFlag, db.FieldLineStatus},
			Groups:  db.NumGroups,
		}
	default: // Q6Select
		q := p.Q
		return Desc{
			Kind: Q6Select,
			Stages: []Stage{
				{Col: db.FieldShipDate, Bounds: []Bound{{isa.CmpGE, q.ShipLo}, {isa.CmpLT, q.ShipHi}}},
				{Col: db.FieldDiscount, Bounds: []Bound{{isa.CmpGE, q.DiscLo}, {isa.CmpLE, q.DiscHi}}},
				{Col: db.FieldQuantity, Bounds: []Bound{{isa.CmpLT, q.QtyHi}}},
			},
		}
	}
}

// groupKey returns the key values of group g in GroupBy column order —
// the immediates a plan compares the key columns against to build the
// group-membership mask.
func groupKey(g int) (rf, ls int32) {
	return int32(g / db.LSValues), int32(g % db.LSValues)
}

// match1 evaluates one bound against a value.
func match1(b Bound, v int32) bool {
	switch b.Kind {
	case isa.CmpEQ:
		return v == b.Imm
	case isa.CmpNE:
		return v != b.Imm
	case isa.CmpLT:
		return v < b.Imm
	case isa.CmpLE:
		return v <= b.Imm
	case isa.CmpGT:
		return v > b.Imm
	case isa.CmpGE:
		return v >= b.Imm
	default:
		panic(fmt.Sprintf("query: bound with non-compare kind %s", b.Kind))
	}
}

// Match evaluates the stage (the AND of its bounds) against one value —
// the primitive of the cost model's selectivity profiler.
func (st Stage) Match(v int32) bool {
	for _, b := range st.Bounds {
		if !match1(b, v) {
			return false
		}
	}
	return true
}

// Column maps a field index to the table column backing it.
func Column(t *db.Table, col int) []int32 { return columnSlice(t, col) }

// columnSlice maps a field index to the table column backing it.
func columnSlice(t *db.Table, col int) []int32 {
	switch col {
	case db.FieldShipDate:
		return t.ShipDate
	case db.FieldDiscount:
		return t.Discount
	case db.FieldQuantity:
		return t.Quantity
	case db.FieldExtendedPrice:
		return t.ExtendedPrice
	case db.FieldReturnFlag:
		return t.ReturnFlag
	case db.FieldLineStatus:
		return t.LineStatus
	default:
		panic(fmt.Sprintf("query: field %d has no column", col))
	}
}

// patternRow is one pattern compare of a tuple-at-a-time plan: per-lane
// constants for one 16-field tuple, compared with kind (GE or LE)
// against each lane of tuple data in a single instruction — an HMC
// CmpRead carries the row as its pattern, HIVE loads it into a bound
// register.
type patternRow struct {
	kind   isa.ALUKind
	pat    []int32
	bounds bool     // some predicate bound sets a lane of the row
	addr   mem.Addr // the row tiled across 256 B of the image
	exp    uint32   // expected masks of the row's compares (HMC)
}

func (r *patternRow) set(col int, v int32) { r.pat[col], r.bounds = v, true }

// tuplePatterns builds the GE and LE pattern rows from the description:
// predicate fields carry their bounds, every other lane always matches.
func tuplePatterns(d Desc) [2]patternRow {
	ge := patternRow{kind: isa.CmpGE, pat: make([]int32, db.NumFields)}
	le := patternRow{kind: isa.CmpLE, pat: make([]int32, db.NumFields)}
	for f := range ge.pat {
		ge.pat[f], le.pat[f] = minInt32, maxInt32
	}
	for _, st := range d.Stages {
		for _, b := range st.Bounds {
			switch b.Kind {
			case isa.CmpGE:
				ge.set(st.Col, b.Imm)
			case isa.CmpGT:
				ge.set(st.Col, b.Imm+1)
			case isa.CmpLE:
				le.set(st.Col, b.Imm)
			case isa.CmpLT:
				le.set(st.Col, b.Imm-1)
			case isa.CmpEQ:
				ge.set(st.Col, b.Imm)
				le.set(st.Col, b.Imm)
			default:
				panic(fmt.Sprintf("query: pattern bound kind %s", b.Kind))
			}
		}
	}
	return [2]patternRow{ge, le}
}

const (
	minInt32 = -1 << 31
	maxInt32 = 1<<31 - 1
)

// cpuAcc models processor-register accumulators for the baseline Q01
// plans: one renamed-register dependency chain per (group, aggregate),
// so the out-of-order core sees exactly the serial add chains a scalar
// aggregation loop carries — independent groups overlap, updates to one
// group's running sum serialise.
type cpuAcc struct {
	vr   *vregs
	regs [db.NumGroups][NumAggs]isa.Reg
}

// add emits one accumulate µop (class IntALU for add-into-sum, IntMul
// where the addend itself is a product) chained onto the (g, agg)
// accumulator, reading src.
func (a *cpuAcc) add(e *emitter, class isa.OpClass, g, agg int, src isa.Reg) {
	dst := a.vr.fresh()
	e.emit(isa.MicroOp{Class: class, Dst: dst, Src1: a.regs[g][agg], Src2: src})
	a.regs[g][agg] = dst
}

// emitTupleAccumulate emits the processor-side scalar accumulation of
// one matching tuple, shared by every tuple-at-a-time Q01 plan: two
// data-dependent branches on the group key (the dispatch whose
// direction is in-memory data), the revenue multiply, and the four
// aggregate updates chained onto the group's register accumulators.
// tup is the register holding the tuple's data.
func (w *Workload) emitTupleAccumulate(e *emitter, acc *cpuAcc, i int, tup isa.Reg) {
	g := w.tupleGroup(i)
	rf, ls := groupKey(g)
	gid := acc.vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gid, Src1: tup})
	e.emit(isa.MicroOp{Class: isa.Branch, Src1: gid, Taken: rf == db.ReturnFlagN})
	e.emit(isa.MicroOp{Class: isa.Branch, Src1: gid, Taken: ls == db.LineStatusO})
	rev := acc.vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntMul, Dst: rev, Src1: tup})
	acc.add(e, isa.IntALU, g, AggCount, gid)
	acc.add(e, isa.IntALU, g, AggQty, tup)
	acc.add(e, isa.IntALU, g, AggPrice, tup)
	acc.add(e, isa.IntALU, g, AggRevenue, rev)
}

// tupleAction is what a tuple-at-a-time plan does with each matching
// tuple: a selection materialises it, an aggregation accumulates it
// into its group's processor registers.
type tupleAction struct {
	w       *Workload
	vr      *vregs
	acc     *cpuAcc // nil for a selection
	matched int     // tuples materialised so far
}

func (w *Workload) newTupleAction(vr *vregs) *tupleAction {
	a := &tupleAction{w: w, vr: vr}
	if w.Desc.Grouped() {
		a.acc = &cpuAcc{vr: vr}
	}
	return a
}

// match emits the action on matching tuple i. tup holds the tuple's
// data, or is RegNone when only its bitmask reached the processor: an
// aggregation then reloads the tuple through the cache hierarchy.
func (a *tupleAction) match(e *emitter, i int, tup isa.Reg) {
	if a.acc == nil {
		e.emit(isa.MicroOp{Class: isa.Store,
			Addr: a.w.Materialize + mem.Addr(a.matched*db.TupleBytes), Size: db.TupleBytes})
		a.matched++
		return
	}
	if tup == isa.RegNone {
		tup = a.vr.fresh()
		e.emit(isa.MicroOp{Class: isa.Load, Dst: tup, Addr: a.w.NSM.TupleAddr(i), Size: db.TupleBytes})
	}
	a.w.emitTupleAccumulate(e, a.acc, i, tup)
}

// test emits the processor's test of tuple i against its chunk's
// bitmask m — extract the tuple's bits, branch on them — and the action
// if the tuple matches.
func (a *tupleAction) test(e *emitter, m isa.Reg, i int) {
	tv := a.vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
	match := a.w.tupleMatch(i)
	e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
	if match {
		a.match(e, i, isa.RegNone)
	}
}
