package query

import (
	"bytes"
	"fmt"
	"math"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/mem"
)

// Workload is a prepared scan: table laid into a machine's image, output
// regions allocated, reference results computed, and a µop generator
// ready to stream.
type Workload struct {
	Plan  Plan
	Table *db.Table
	M     *machine.Machine

	// Desc is the plan's compiled query description; every generator
	// reads its predicate stages (and, for Q1Agg, its group-by shape)
	// from here instead of a hard-wired query.
	Desc Desc

	// Layouts (one of the two is populated, per the strategy).
	NSM db.NSMLayout
	DSM db.DSMLayout

	// Output regions.
	MaskBase    map[int]mem.Addr // per predicate column (DSM) — one bit per tuple
	FinalMask   mem.Addr         // final bitmask region (both strategies)
	Materialize mem.Addr         // matched-tuple region (NSM, selection scans)

	// AccRegion holds in-memory aggregation accumulators: one 256 B
	// vector of per-lane partial sums for the Q06 Aggregate extension,
	// or Groups×NumAggs vectors for Q01 plans on the engine
	// architectures (HIVE/HIPE).
	AccRegion mem.Addr

	// ValidRow is a 256 B row whose first OpSize/4 lanes are all-ones
	// and the rest zero. Vector loads below the full register width
	// leave a register's tail lanes untouched (zero), but compares over
	// those lanes still produce mask bits; ANDing the filter mask with
	// this row confines the predicated accumulation to real tuples.
	ValidRow mem.Addr

	// rows are a tuple plan's pattern rows that bound some lane, GE
	// before LE: one compare each, the masks ANDed in order.
	rows []patternRow

	// Reference results (Ref for selection scans, Ref1 for aggregation).
	Ref  *db.ReferenceResult
	Ref1 *db.Q1Result
	// matchMask is the flat full-predicate bitmask (Ref.Bitmask or
	// Ref1.Bitmask), the branch-outcome oracle for tuple plans.
	matchMask []byte

	// expect holds the result every checked instruction should produce,
	// built once by Prepare (expect.go) at its final size, in regions
	// laid out like the chunked mask regions: chunk c's mask at the
	// region's offset + c×MaskBytes. A checked instruction's Expect is
	// its offset here. Only the regions some checked instruction names
	// exist: prefixExp[s] holds the masks of the AND of stages 0..s
	// (HIVE/HIPE column plans; noRegion for a stage no instruction
	// checks), cmpExp one lane-uniform compare's (HMC column plans),
	// each pattern row's exp its compares' (HMC tuple plans), and
	// tupleExp the AND of every row's compare, the mask HIVE tuple
	// plans store.
	expect    []byte
	prefixExp []uint32
	cmpExp    map[colBound]uint32
	tupleExp  uint32

	// Runtime verification of engine-computed results.
	mismatches int
	checked    int
}

// colBound is one lane-uniform compare of a column.
type colBound struct {
	col int
	b   Bound
}

// maxGroupChunks bounds the chunk count of an engine-aggregated Q01
// plan: per-lane partial sums are 32-bit and the worst-case per-chunk
// addend is one maximal discounted revenue (≈1.06e6), so beyond ~2025
// chunks a lane could overflow.
const maxGroupChunks = 2025

// ValidateFor extends Validate with the table-dependent envelope: an
// engine-aggregated Q01 plan keeps 32-bit per-lane partial sums, so
// its chunk count (tuples per operation) is bounded. Grid expansion
// and serve admission use this so oversized cells trim or reject up
// front instead of aborting a run mid-sweep.
func (p Plan) ValidateFor(tuples int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Auto() {
		// Validate accepted the shape; the table-dependent envelope
		// holds when at least one backend substitution survives it.
		for _, b := range backends {
			q := p
			q.Arch = b.arch
			if q.ValidateFor(tuples) == nil {
				return nil
			}
		}
		return fmt.Errorf("query: auto plan %s fits no registered backend for %d tuples", p, tuples)
	}
	if p.Kind == Q1Agg && p.Strategy == ColumnAtATime &&
		(p.Arch == HIVE || p.Arch == HIPE) {
		if chunks := tuples / (int(p.OpSize) / db.ColumnWidth); chunks > maxGroupChunks {
			return fmt.Errorf("query: %d chunks of %d B risk 32-bit lane overflow in group accumulators (max %d; raise the op size or shard the table)",
				chunks, p.OpSize, maxGroupChunks)
		}
	}
	return nil
}

// Prepare lays the table into m's image and builds all bookkeeping.
func Prepare(m *machine.Machine, t *db.Table, p Plan) (*Workload, error) {
	if p.Auto() {
		return nil, fmt.Errorf("query: auto plan %s must be resolved to a registered backend before preparing", p)
	}
	if err := p.ValidateFor(t.N); err != nil {
		return nil, err
	}
	if t.N == 0 {
		return nil, fmt.Errorf("query: empty table")
	}
	if t.N%64 != 0 {
		// Keeps every op size an exact divisor of the data; the paper's
		// 1 GB table trivially satisfies this.
		return nil, fmt.Errorf("query: tuple count %d must be a multiple of 64", t.N)
	}
	if p.Arch == HIPE && (p.Aggregate || p.Kind == Q1Agg) && !m.HIPE.ZeroingSquash() {
		// The accumulating plans feed unpredicated Adds from predicated
		// temporaries: only zeroing-mask squash semantics guarantee a
		// squashed temp contributes zero. On the paper-literal
		// "leave dst unchanged" ablation machine the temps would carry
		// stale data into the accumulators, so refuse up front.
		return nil, fmt.Errorf("query: %s accumulates through predicated temporaries and requires the HIPE engine's zeroing-squash semantics", p)
	}
	w := &Workload{
		Plan:     p,
		Table:    t,
		M:        m,
		Desc:     p.Desc(),
		MaskBase: make(map[int]mem.Addr),
	}
	if need, have := w.layoutBytes(), uint64(len(m.Image)); need > have {
		return nil, fmt.Errorf("query: %s over %d tuples needs a %d-byte machine image, this machine's holds %d",
			p, t.N, need, have)
	}
	a := db.NewArena(uint64(len(m.Image)))

	switch p.Strategy {
	case TupleAtATime:
		w.NSM = db.LayoutNSM(m.Image, a, t)
		// Pattern rows: per-lane constants tiled every 16 lanes (one
		// tuple). Both rows are written even when one bounds no lane:
		// every later region's arena address depends on it.
		for _, r := range tuplePatterns(w.Desc) {
			r.addr = writePattern(m.Image, a, r.pat)
			if r.bounds {
				w.rows = append(w.rows, r)
			}
		}
		// Lane-mask region: one bit per 32-bit lane of tuple data.
		lanes := t.N * db.TupleBytes / 4
		w.FinalMask = a.Alloc(uint64(lanes/8), 256)
		w.Materialize = a.Alloc(uint64(t.N*db.TupleBytes), 256)
	case ColumnAtATime:
		if w.Desc.Grouped() {
			// The aggregation plans touch the group-key columns; they
			// append after the standard four so the Q06 layout is
			// byte-identical with or without them.
			w.DSM = db.LayoutDSM(m.Image, a, t,
				db.FieldShipDate, db.FieldDiscount, db.FieldQuantity,
				db.FieldExtendedPrice, db.FieldReturnFlag, db.FieldLineStatus)
		} else {
			w.DSM = db.LayoutDSM(m.Image, a, t)
		}
		// Chunks below 8 tuples still occupy a whole mask byte, so the
		// region is chunks×MaskBytes, not N/8.
		tuplesPerChunk := int(p.OpSize) / db.ColumnWidth
		for _, st := range w.Desc.Stages {
			w.MaskBase[st.Col] = a.Alloc(uint64(w.regionBytes()), 256)
		}
		w.FinalMask = w.MaskBase[w.Desc.Stages[len(w.Desc.Stages)-1].Col]
		if p.Aggregate {
			// Per-lane partial sums are 32-bit: bound the table so the
			// worst-case lane sum (every 64th tuple matching at maximum
			// revenue ≈ 1.06e6) cannot overflow.
			if t.N > 1<<20 {
				return nil, fmt.Errorf("query: aggregation lanes would risk overflow beyond %d tuples", 1<<20)
			}
			w.AccRegion = a.Alloc(isa.RegisterBytes, 256)
		}
		if w.Desc.Grouped() && (p.Arch == HIVE || p.Arch == HIPE) {
			// The engines keep one accumulator register per (group,
			// aggregate); ValidateFor bounded the chunk count so the
			// 32-bit lanes cannot overflow.
			w.AccRegion = a.Alloc(uint64(w.Desc.Groups*NumAggs)*isa.RegisterBytes, 256)
			w.ValidRow = a.Alloc(256, 256)
			for i := 0; i < tuplesPerChunk; i++ {
				isa.SetLane(m.Image[uint64(w.ValidRow):], i, -1)
			}
		}
	}

	switch w.Desc.Kind {
	case Q1Agg:
		w.Ref1 = db.ReferenceQ1(t, p.Q1)
		w.matchMask = w.Ref1.Bitmask
	default:
		w.Ref = db.Reference(t, p.Q)
		w.matchMask = w.Ref.Bitmask
	}
	w.buildExpectations()
	m.SetChecker(w)
	return w, nil
}

// layoutBytes is the arena high-water mark of the layout Prepare lays
// into the image: the same regions in the same order, measured on an
// arena that cannot run out, so a machine whose image is too small is
// refused before anything is written.
func (w *Workload) layoutBytes() uint64 {
	n := uint64(w.Table.N)
	a := db.NewArena(math.MaxUint64)
	if w.Plan.Strategy == TupleAtATime {
		// Tuples, the two pattern rows, the lane masks, the
		// materialise region.
		for _, size := range []uint64{n * db.TupleBytes, 256, 256, n * db.TupleBytes / 32, n * db.TupleBytes} {
			a.Alloc(size, 256)
		}
		return a.Used()
	}
	// LayoutDSM's columns, each padded to whole 256 B rows and
	// staggered one row further than the previous one.
	cols := 4
	if w.Desc.Grouped() {
		cols = 6
	}
	for k := 1; k <= cols; k++ {
		a.Alloc((n*db.ColumnWidth+255)&^255+uint64(k)*256, 256)
	}
	for range w.Desc.Stages {
		a.Alloc(uint64(w.regionBytes()), 256)
	}
	if w.Plan.Aggregate {
		a.Alloc(isa.RegisterBytes, 256)
	}
	if w.Desc.Grouped() && (w.Plan.Arch == HIVE || w.Plan.Arch == HIPE) {
		a.Alloc(uint64(w.Desc.Groups*NumAggs)*isa.RegisterBytes, 256)
		a.Alloc(256, 256)
	}
	return a.Used()
}

// tupleChunks is the chunk geometry of the in-memory tuple plans: a
// chunk is OpSize bytes of tuple data — whole tuples — or, below a
// tuple's size, the first OpSize bytes of one tuple; chunks start
// stride bytes apart.
func (w *Workload) tupleChunks() (chunks, tuplesPerChunk, stride int) {
	stride = max(int(w.Plan.OpSize), db.TupleBytes)
	tuplesPerChunk = stride / db.TupleBytes
	return w.Table.N / tuplesPerChunk, tuplesPerChunk, stride
}

// expectAt is the offset of chunk c's expected mask in the region at
// off.
func (w *Workload) expectAt(off uint32, c int) uint32 {
	return off + uint32(c)*isa.MaskBytes(w.Plan.OpSize)
}

// writePattern stores a 16-lane pattern tiled across one 256 B row.
func writePattern(image []byte, a *db.Arena, pat []int32) mem.Addr {
	base := a.Alloc(256, 256)
	for i := 0; i < 64; i++ {
		isa.SetLane(image[uint64(base):], i, pat[i%len(pat)])
	}
	return base
}

// tupleMatch reports whether tuple i fully matches per the reference
// (used for branch outcomes in tuple-at-a-time plans).
func (w *Workload) tupleMatch(i int) bool {
	return w.matchMask[i/8]&(1<<(i%8)) != 0
}

// tupleGroup reports tuple i's group index (Q1Agg plans).
func (w *Workload) tupleGroup(i int) int {
	return db.GroupID(w.Table.ReturnFlag[i], w.Table.LineStatus[i])
}

// accAddr is the address of the (group, aggregate) accumulator vector.
func (w *Workload) accAddr(g, agg int) mem.Addr {
	return w.AccRegion + mem.Addr((g*NumAggs+agg)*isa.RegisterBytes)
}

// Check implements isa.Checker: Prepare installs the workload as its
// machine's checker, and the engines report each checked instruction's
// result, which must equal the instruction's expectation.
func (w *Workload) Check(inst *isa.OffloadInst, result []byte) {
	w.checked++
	if !bytes.Equal(result, w.expect[inst.Expect:int(inst.Expect)+len(result)]) {
		w.mismatches++
	}
}

// Checked reports how many engine results were cross-checked at runtime.
func (w *Workload) Checked() int { return w.checked }

// Mismatches reports runtime cross-check failures (must be zero).
func (w *Workload) Mismatches() int { return w.mismatches }

// GroupResults returns the per-group aggregates of a verified Q1Agg run,
// in db.GroupID order (nil for selection plans). Call after Verify: for
// the engine architectures the values were checked against the
// in-memory accumulators, for the baselines against the runtime mask
// cross-checks.
func (w *Workload) GroupResults() []db.GroupAgg {
	if w.Ref1 == nil {
		return nil
	}
	out := make([]db.GroupAgg, len(w.Ref1.Groups))
	copy(out, w.Ref1.Groups[:])
	return out
}

// Verify checks the functional outcome of a completed run against the
// reference evaluator. Which artifacts exist depends on the plan: the
// final bitmask region the HIVE and HIPE column plans store (all but
// HIPE's one-pass aggregation, which never materialises it), the
// accumulators the in-memory aggregations spill — each lane sum must
// equal the reference value — and the runtime cross-checks of the HMC
// and HIVE tuple plans. x86 leaves none: its correctness is the
// reference itself.
func (w *Workload) Verify() error {
	p := w.Plan
	if w.mismatches > 0 {
		return fmt.Errorf("query %s: %d of %d runtime result checks failed",
			p, w.mismatches, w.checked)
	}
	engine := p.Strategy == ColumnAtATime && (p.Arch == HIVE || p.Arch == HIPE)
	if engine && (p.Arch == HIVE || !w.Desc.Grouped()) {
		// The final bitmask region must equal the last stage's expected
		// masks, which Prepare checked against the reference bitmask, in
		// the chunked storage layout (each chunk's tuple bits packed
		// into MaskBytes(OpSize) bytes).
		want := w.region(w.prefixExp[len(w.prefixExp)-1])
		got := w.M.Image[w.FinalMask:][:len(want)]
		if !bytes.Equal(got, want) {
			return fmt.Errorf("query %s: final bitmask differs from reference (%d vs %d matches)",
				p, isa.PopcountMask(got), isa.PopcountMask(want))
		}
	}
	if p.Aggregate {
		if got := laneSum(w.M.Image, w.AccRegion); got != w.Ref.Revenue {
			return fmt.Errorf("query %s: in-memory revenue %d, reference %d", p, got, w.Ref.Revenue)
		}
	}
	if engine && w.Desc.Grouped() {
		for g := 0; g < w.Desc.Groups; g++ {
			ref := w.Ref1.Groups[g]
			want := [NumAggs]int64{ref.Count, ref.SumQty, ref.SumPrice, ref.SumRevenue}
			for agg := 0; agg < NumAggs; agg++ {
				if got := laneSum(w.M.Image, w.accAddr(g, agg)); got != want[agg] {
					return fmt.Errorf("query %s: group %d %s: in-memory %d, reference %d",
						p, g, AggName(agg), got, want[agg])
				}
			}
		}
	}
	if (p.Arch == HMC || p.Arch == HIVE && p.Strategy == TupleAtATime) && w.checked == 0 {
		return fmt.Errorf("query %s: no runtime checks ran", p)
	}
	return nil
}
