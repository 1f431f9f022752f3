package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hmcTuple generates the HMC-baseline tuple-at-a-time scan: per chunk of
// OpSize bytes of tuple data, one load-compare instruction per pattern
// row executes inside the vault; the processor ANDs the returned
// bitmasks, branches per tuple, and acts on matches. A selection
// materialises matching tuples with cache-assisted stores and stores
// the chunk's bitmask; an aggregation reloads each matching tuple
// through the cache hierarchy, branches again on its group key, and
// accumulates the group's running sums in registers.
func (w *Workload) hmcTuple() *chunkedStream {
	p := w.Plan
	chunks, tuplesPerChunk, stride := w.tupleChunks()
	groups := (chunks + p.Unroll - 1) / p.Unroll
	maskBytes := isa.MaskBytes(p.OpSize)
	pcBase := w.pcBase(0x3000, 0x9000)

	vr := &vregs{}
	act := w.newTupleAction(vr)
	group := 0
	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(pcBase)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			addr := w.NSM.Base + mem.Addr(c*stride)
			m := isa.RegNone
			for _, r := range w.rows {
				cr := vr.fresh()
				e.offload(cr, isa.RegNone, isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: r.kind,
					Addr: addr, Size: p.OpSize, Pattern: w.patternLanes(r.pat), Check: true, Expect: w.expectAt(r.exp, c)})
				m = e.and(vr, m, cr)
			}
			for t := 0; t < tuplesPerChunk; t++ {
				act.test(e, m, c*tuplesPerChunk+t)
			}
			if act.acc == nil {
				// Store the chunk's bitmask with cache assistance.
				e.emit(isa.MicroOp{Class: isa.Store, Src1: m,
					Addr: w.FinalMask + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			}
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
				m = e.and(vr, m, w.hmcCmpRead(e, vr, st.Col, c, b))
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
				acc.add(e, isa.IntALU, g, AggCount, gm)
				// Mask each measure with the membership, then fold it in.
				for _, ms := range [...]struct {
					agg int
					src isa.Reg
				}{{AggQty, qpd[0]}, {AggPrice, qpd[1]}, {AggRevenue, rev}} {
					t := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: t, Src1: ms.src, Src2: gm})
					acc.add(e, isa.IntALU, g, ms.agg, t)
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
			// description, the masks ANDed in order.
			m := isa.RegNone
			for _, b := range st.Bounds {
				m = e.and(vr, m, w.hmcCmpRead(e, vr, col, c, b))
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
