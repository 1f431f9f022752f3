package query

import (
	"bytes"
	"fmt"

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

	// Pattern rows for NSM lane compares (HIVE registers load them; HMC
	// CmpReads carry them as instruction patterns).
	PatternGE mem.Addr
	PatternLE mem.Addr
	patGE     []int32
	patLE     []int32

	// Reference results (Ref for selection scans, Ref1 for aggregation).
	Ref  *db.ReferenceResult
	Ref1 *db.Q1Result
	// matchMask is the flat full-predicate bitmask (Ref.Bitmask or
	// Ref1.Bitmask), the branch-outcome oracle for tuple plans.
	matchMask []byte
	// prefix[i] = AND of stage masks up to predicate stage i.
	prefix [][]byte
	// groupMask[g] = prefix[last] ∧ group-g membership (Q1Agg only).
	groupMask [][]byte

	// expect holds the result every checked instruction should produce,
	// built once by Prepare in regions laid out like the chunked mask
	// regions: chunk c's mask at the region's offset + c×MaskBytes. A
	// checked instruction's Expect is its offset here. The regions:
	// prefixExp[s] holds prefix[s]'s masks (HIVE/HIPE column plans),
	// cmpExp one lane-uniform compare's (HMC column plans), and
	// geExp/leExp/bothExp a tuple plan's pattern compares — GE, LE, and
	// the GE∧LE that HIVE stores.
	expect                []byte
	prefixExp             []uint32
	cmpExp                map[colBound]uint32
	geExp, leExp, bothExp uint32

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
		for _, b := range Backends() {
			q := p
			q.Arch = b.Arch()
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
	a := db.NewArena(uint64(len(m.Image)))

	switch p.Strategy {
	case TupleAtATime:
		w.NSM = db.LayoutNSM(m.Image, a, t)
		// Pattern rows: per-lane constants tiled every 16 lanes (one
		// tuple). CmpGE pattern / CmpLE pattern; filler lanes always in
		// range.
		w.patGE, w.patLE = tuplePatternsDesc(w.Desc)
		w.PatternGE = writePattern(m.Image, a, w.patGE)
		w.PatternLE = writePattern(m.Image, a, w.patLE)
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
		regionBytes := uint64(t.N / tuplesPerChunk * int(isa.MaskBytes(p.OpSize)))
		for _, st := range w.Desc.Stages {
			w.MaskBase[st.Col] = a.Alloc(regionBytes, 256)
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
	w.prefix = make([][]byte, len(w.Desc.Stages))
	for i, st := range w.Desc.Stages {
		m := stageMask(t, st)
		if i > 0 {
			m = andMasks(w.prefix[i-1], m)
		}
		w.prefix[i] = m
	}
	if w.Desc.Grouped() {
		w.groupMask = make([][]byte, w.Desc.Groups)
		filter := w.prefix[len(w.prefix)-1]
		for g := range w.groupMask {
			rf, ls := groupKey(g)
			gm := make([]byte, len(filter))
			for i := 0; i < t.N; i++ {
				if filter[i/8]&(1<<(i%8)) != 0 && t.ReturnFlag[i] == rf && t.LineStatus[i] == ls {
					gm[i/8] |= 1 << (i % 8)
				}
			}
			w.groupMask[g] = gm
		}
	}
	w.buildExpectations()
	m.SetChecker(w)
	return w, nil
}

// buildExpectations fills expect with the regions the plan's checked
// instructions name.
func (w *Workload) buildExpectations() {
	p := w.Plan
	region := func(chunks, bits int, hit func(c, i int) bool) uint32 {
		off := uint32(len(w.expect))
		w.expect = appendMasks(w.expect, chunks, bits, hit)
		return off
	}
	lanes := int(p.OpSize) / isa.LaneBytes
	switch {
	case p.Arch == X86:
	case p.Strategy == TupleAtATime:
		// A chunk is OpSize bytes of tuple data, or the first OpSize
		// bytes of one tuple below a tuple's size.
		stride := max(int(p.OpSize), db.TupleBytes)
		chunks := w.Table.N * db.TupleBytes / stride
		data := w.M.Image[w.NSM.Base:]
		ge := func(c, i int) bool { return isa.LaneAt(data, c*stride/4+i) >= w.patGE[i%db.NumFields] }
		le := func(c, i int) bool { return isa.LaneAt(data, c*stride/4+i) <= w.patLE[i%db.NumFields] }
		switch {
		case w.Desc.Kind == Q1Agg:
			w.leExp = region(chunks, lanes, le)
		case p.Arch == HMC:
			w.geExp, w.leExp = region(chunks, lanes, ge), region(chunks, lanes, le)
		default:
			w.bothExp = region(chunks, lanes, func(c, i int) bool { return ge(c, i) && le(c, i) })
		}
	case p.Arch == HMC:
		chunks := w.Table.N / lanes
		w.cmpExp = map[colBound]uint32{}
		add := func(col int, b Bound) {
			vals := columnSlice(w.Table, col)
			w.cmpExp[colBound{col, b}] = region(chunks, lanes, func(c, i int) bool { return match1(b, vals[c*lanes+i]) })
		}
		for _, st := range w.Desc.Stages {
			for _, b := range st.Bounds {
				add(st.Col, b)
			}
		}
		if w.Desc.Grouped() {
			for v := range db.RFValues {
				add(db.FieldReturnFlag, Bound{isa.CmpEQ, int32(v)})
			}
			for v := range db.LSValues {
				add(db.FieldLineStatus, Bound{isa.CmpEQ, int32(v)})
			}
		}
	default:
		for _, m := range w.prefix {
			w.prefixExp = append(w.prefixExp, uint32(len(w.expect)))
			w.expect = w.appendMaskRegion(w.expect, m)
		}
	}
}

// expectAt is the offset of chunk c's expected mask in the region at
// off.
func (w *Workload) expectAt(off uint32, c int) uint32 {
	return off + uint32(c)*isa.MaskBytes(w.Plan.OpSize)
}

func andMasks(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] & b[i]
	}
	return out
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

// appendMaskRegion appends a per-tuple bitmask laid out the way the
// chunked scan stores it: each chunk of OpSize/4 tuples occupies
// MaskBytes(OpSize) bytes (for chunks smaller than 8 tuples the packing
// differs from a flat bitmask).
func (w *Workload) appendMaskRegion(dst, flat []byte) []byte {
	tpc := int(w.Plan.OpSize) / db.ColumnWidth
	return appendMasks(dst, w.Table.N/tpc, tpc, func(c, i int) bool {
		j := c*tpc + i
		return flat[j/8]&(1<<(j%8)) != 0
	})
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
// reference evaluator. Which artifacts exist depends on the plan:
// engine-written bitmask regions and group accumulators for HIVE/HIPE,
// runtime cross-checks for HMC, and (by construction) nothing for x86,
// whose correctness is the reference itself.
func (w *Workload) Verify() error {
	if w.mismatches > 0 {
		return fmt.Errorf("query %s: %d of %d runtime result checks failed",
			w.Plan, w.mismatches, w.checked)
	}
	if w.Desc.Kind == Q1Agg {
		return w.verifyQ1()
	}
	switch {
	case w.Plan.Arch == HIVE && w.Plan.Strategy == ColumnAtATime,
		w.Plan.Arch == HIPE:
		// The final bitmask region must equal the reference bitmask in
		// the chunked storage layout (each chunk's tuple bits packed
		// into MaskBytes(OpSize) bytes).
		want := w.appendMaskRegion(nil, w.Ref.Bitmask)
		got := w.M.Image[w.FinalMask : uint64(w.FinalMask)+uint64(len(want))]
		if !bytes.Equal(got, want) {
			return fmt.Errorf("query %s: final bitmask differs from reference (%d vs %d matches)",
				w.Plan, isa.PopcountMask(got), isa.PopcountMask(want))
		}
	}
	if w.Plan.Aggregate {
		// The engine's accumulator vector must sum to the reference
		// revenue.
		got := laneSum(w.M.Image, w.AccRegion)
		if got != w.Ref.Revenue {
			return fmt.Errorf("query %s: in-memory revenue %d, reference %d", w.Plan, got, w.Ref.Revenue)
		}
	}
	switch {
	case w.Plan.Arch == HIVE && w.Plan.Strategy == TupleAtATime:
		// The engine wrote packed GE&LE lane masks; tuple i matches iff
		// its three predicate lane bits are all set in both masks — the
		// generator cross-checked each chunk at runtime (w.checked>0).
		if w.checked == 0 {
			return fmt.Errorf("query %s: no runtime checks ran", w.Plan)
		}
	case w.Plan.Arch == HMC:
		if w.checked == 0 {
			return fmt.Errorf("query %s: no runtime checks ran", w.Plan)
		}
	}
	return nil
}

// verifyQ1 checks a grouped-aggregation run. The engine architectures
// spilled their accumulator registers to AccRegion: each (group,
// aggregate) register's lane sum must equal the reference evaluator's
// value. The baselines verified their bitmasks at runtime.
func (w *Workload) verifyQ1() error {
	engine := w.Plan.Strategy == ColumnAtATime &&
		(w.Plan.Arch == HIVE || w.Plan.Arch == HIPE)
	if engine {
		if w.Plan.Arch == HIVE {
			// HIVE's filter pass stored the chunked filter bitmask.
			want := w.appendMaskRegion(nil, w.Ref1.Bitmask)
			got := w.M.Image[w.FinalMask : uint64(w.FinalMask)+uint64(len(want))]
			if !bytes.Equal(got, want) {
				return fmt.Errorf("query %s: filter bitmask differs from reference (%d vs %d matches)",
					w.Plan, isa.PopcountMask(got), isa.PopcountMask(want))
			}
		}
		for g := 0; g < w.Desc.Groups; g++ {
			ref := w.Ref1.Groups[g]
			want := [NumAggs]int64{ref.Count, ref.SumQty, ref.SumPrice, ref.SumRevenue}
			for agg := 0; agg < NumAggs; agg++ {
				got := laneSum(w.M.Image, w.accAddr(g, agg))
				if got != want[agg] {
					return fmt.Errorf("query %s: group %d %s: in-memory %d, reference %d",
						w.Plan, g, AggName(agg), got, want[agg])
				}
			}
		}
		return nil
	}
	switch w.Plan.Arch {
	case HMC, HIVE:
		if w.checked == 0 {
			return fmt.Errorf("query %s: no runtime checks ran", w.Plan)
		}
	}
	return nil
}
