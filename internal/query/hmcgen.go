package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hmcTuple generates the HMC-baseline tuple-at-a-time scan: per chunk of
// OpSize bytes of tuple data, two load-compare instructions (GE and LE
// lane patterns) execute inside the vault; the processor ANDs the
// returned bitmasks, branches per tuple, and materialises matches with
// cache-assisted stores.
func (w *Workload) hmcTuple() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	// A chunk covers whole tuples for S >= 64, or the predicate-bearing
	// prefix of a single tuple for smaller sizes.
	tuplesPerChunk := S / db.TupleBytes
	stride := S
	if tuplesPerChunk == 0 {
		tuplesPerChunk = 1
		stride = db.TupleBytes
	}
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	patGE, patLE := w.patternLanes(w.patGE), w.patternLanes(w.patLE)

	vr := &vregs{}
	group := 0
	matched := 0
	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(0x3000)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			firstTuple := c * tuplesPerChunk
			addr := w.NSM.Base + mem.Addr(c*stride)

			g, l := vr.fresh(), vr.fresh()
			e.offload(g, isa.RegNone, isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
				Addr: addr, Size: p.OpSize, Pattern: patGE, Check: true, Expect: w.expectAt(w.geExp, c)})
			e.offload(l, isa.RegNone, isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: addr, Size: p.OpSize, Pattern: patLE, Check: true, Expect: w.expectAt(w.leExp, c)})
			m := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntALU, Dst: m, Src1: g, Src2: l})
			for t := 0; t < tuplesPerChunk; t++ {
				i := firstTuple + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if match {
					e.emit(isa.MicroOp{Class: isa.Store,
						Addr: w.Materialize + mem.Addr(matched*db.TupleBytes),
						Size: db.TupleBytes})
					matched++
				}
			}
			// Store the chunk's bitmask with cache assistance.
			e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
				Addr: w.FinalMask + mem.Addr(c)*mem.Addr(isa.MaskBytes(p.OpSize)),
				Size: isa.MaskBytes(p.OpSize)})
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	}}
}

// patternLanes returns a tuple pattern truncated to the instruction
// immediate (at most one tuple of 16 lanes, fewer for sub-tuple ops).
func (w *Workload) patternLanes(pat []int32) []int32 {
	return pat[:min(int(w.Plan.OpSize)/4, db.NumFields)]
}

// hmcCmpRead emits the checked lane-uniform CmpRead of column chunk c
// against b and returns the register receiving its mask.
func (w *Workload) hmcCmpRead(e *emitter, vr *vregs, col, c int, b Bound) isa.Reg {
	r := vr.fresh()
	e.offload(r, isa.RegNone, isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: b.Kind,
		Addr: w.DSM.ColBase[col] + mem.Addr(c*int(w.Plan.OpSize)), Size: w.Plan.OpSize, Imm: b.Imm,
		Check: true, Expect: w.expectAt(w.cmpExp[colBound{col, b}], c)})
	return r
}

// q1hmcTuple generates the HMC-baseline tuple-at-a-time Q01
// aggregation: per chunk of tuple data, one load-compare instruction
// evaluates the shipdate filter pattern inside the vault; the bitmask
// round-trips to the processor, which branches per tuple, reloads
// matching tuples through the cache hierarchy, branches again on the
// group key, and accumulates the group's running sums in registers.
func (w *Workload) q1hmcTuple() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk := S / db.TupleBytes
	stride := S
	if tuplesPerChunk == 0 {
		tuplesPerChunk = 1
		stride = db.TupleBytes
	}
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	patLE := w.patternLanes(w.patLE)

	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	group := 0
	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(0x9000)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			firstTuple := c * tuplesPerChunk
			m := vr.fresh()
			e.offload(m, isa.RegNone, isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: w.NSM.Base + mem.Addr(c*stride), Size: p.OpSize, Pattern: patLE,
				Check: true, Expect: w.expectAt(w.leExp, c)})
			for t := 0; t < tuplesPerChunk; t++ {
				i := firstTuple + t
				tv := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: tv, Src1: m})
				match := w.tupleMatch(i)
				e.emit(isa.MicroOp{Class: isa.Branch, Src1: tv, Taken: match})
				if !match {
					continue
				}
				// Cache-path reload of the matching tuple, then the
				// shared group-dispatch-and-accumulate block.
				tup := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: tup,
					Addr: w.NSM.TupleAddr(i), Size: db.TupleBytes})
				w.emitTupleAccumulate(e.emit, acc, i, tup)
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	}}
}

// q1hmcColumn generates the HMC-baseline column-at-a-time Q01
// aggregation: per chunk, load-compare instructions evaluate the
// shipdate filter and every group-key value in the vaults, each bitmask
// round-trips to the processor, and the processor reloads the measure
// columns through the cache hierarchy to fold masked lanes into its
// register accumulators — branchless, but every group-membership
// decision crosses the SerDes links twice.
func (w *Workload) q1hmcColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll
	st := w.Desc.Stages[0]

	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	group := 0
	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(0x9800)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			// Filter bitmask in the vault.
			m := isa.RegNone
			for _, b := range st.Bounds {
				r := w.hmcCmpRead(e, vr, st.Col, c, b)
				if m == isa.RegNone {
					m = r
				} else {
					nm := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: r})
					m = nm
				}
			}
			// Key bitmasks in the vault, one compare per distinct value.
			var rfMask [db.RFValues]isa.Reg
			for v := range rfMask {
				rfMask[v] = w.hmcCmpRead(e, vr, db.FieldReturnFlag, c, Bound{isa.CmpEQ, int32(v)})
			}
			var lsMask [db.LSValues]isa.Reg
			for v := range lsMask {
				lsMask[v] = w.hmcCmpRead(e, vr, db.FieldLineStatus, c, Bound{isa.CmpEQ, int32(v)})
			}
			// Measure columns reload through the cache hierarchy, in
			// line-sized pieces.
			var qpd [3]isa.Reg
			for i, col := range [...]int{db.FieldQuantity, db.FieldExtendedPrice, db.FieldDiscount} {
				base := w.DSM.ColBase[col] + mem.Addr(c*S)
				for off := 0; off < S; off += 64 {
					qpd[i] = vr.fresh()
					e.emit(isa.MicroOp{Class: isa.Load, Dst: qpd[i],
						Addr: base + mem.Addr(off), Size: uint32(min(S-off, 64))})
				}
			}
			rev := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntMul, Dst: rev, Src1: qpd[1], Src2: qpd[2]})
			for g := 0; g < w.Desc.Groups; g++ {
				rf, ls := groupKey(g)
				km := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: km, Src1: rfMask[rf], Src2: lsMask[ls]})
				gm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gm, Src1: km, Src2: m})
				acc.add(e.emit, isa.IntALU, g, AggCount, gm)
				// Mask each measure with the membership, then fold it in.
				for _, ms := range [...]struct {
					agg int
					src isa.Reg
				}{{AggQty, qpd[0]}, {AggPrice, qpd[1]}, {AggRevenue, rev}} {
					t := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: t, Src1: ms.src, Src2: gm})
					acc.add(e.emit, isa.IntALU, g, ms.agg, t)
				}
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	}}
}

// hmcColumn generates the HMC-baseline column-at-a-time scan: per column
// chunk, lane-uniform load-compare instructions run in the vaults, the
// processor combines the returned masks with the running bitmask (read
// and written with cache assistance) — branchless except loop control.
func (w *Workload) hmcColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	groups := (chunks + p.Unroll - 1) / p.Unroll

	stages := w.Desc.Stages
	vr := &vregs{}
	stage := 0
	group := 0
	return &chunkedStream{next: func(e *emitter) bool {
		if stage >= len(stages) {
			return false
		}
		st := stages[stage]
		col := st.Col
		e.reset(uint64(0x4000 + 0x400*stage))
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			// One load-compare per stage bound, straight from the
			// description; the masks AND together once all are issued.
			var results [2]isa.Reg
			for i, b := range st.Bounds {
				results[i] = w.hmcCmpRead(e, vr, col, c, b)
			}
			m := results[0]
			for _, r := range results[1:len(st.Bounds)] {
				nm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: r})
				m = nm
			}
			if stage > 0 {
				prev := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: prev,
					Addr: w.MaskBase[stages[stage-1].Col] + mem.Addr(c)*mem.Addr(maskBytes),
					Size: maskBytes})
				nm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: prev})
				m = nm
			}
			e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
				Addr: w.MaskBase[col] + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
		}
		e.loopTail(vr, group != groups-1)
		group++
		if group >= groups {
			group = 0
			stage++
		}
		return true
	}}
}
