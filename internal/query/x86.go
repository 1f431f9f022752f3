package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// x86Tuple generates the AVX tuple-at-a-time scan over the NSM layout:
// load the whole 64-byte tuple (in OpSize pieces), lane-compare the
// predicate fields against the pattern rows, branch on the combined
// match, and act on matching tuples — the paper's Figure 1a flow. A
// selection materialises the tuple; an aggregation branches again on
// the group key (the returnflag and linestatus dispatch whose direction
// depends on in-memory data) and accumulates the group's four running
// sums in registers.
func (w *Workload) x86Tuple() *chunkedStream {
	p := w.Plan
	S := p.OpSize
	chunksPerTuple := int(db.TupleBytes / S)
	if chunksPerTuple == 0 {
		chunksPerTuple = 1
	}
	vr := &vregs{}
	act := w.newTupleAction(vr)
	group := 0
	groups := (w.Table.N + p.Unroll - 1) / p.Unroll
	pcBase := w.pcBase(0x1000, 0x8000)

	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(pcBase)
		first, last := blockBounds(group, p.Unroll, w.Table.N)
		for i := first; i < last; i++ {
			// Load the entire tuple: the row-store wastes bandwidth on
			// unused fields — the cache-pollution effect of §II-B.
			var firstChunk isa.Reg
			for k := 0; k < chunksPerTuple; k++ {
				dst := vr.fresh()
				if k == 0 {
					firstChunk = dst
				}
				e.emit(isa.MicroOp{Class: isa.Load, Dst: dst,
					Addr: w.NSM.TupleAddr(i) + mem.Addr(k)*mem.Addr(S), Size: S})
			}
			// Predicates live in the first 16 bytes: one pattern compare
			// per row, the masks ANDed in order.
			m := isa.RegNone
			for range w.rows {
				c := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.VecCmp, Dst: c, Src1: firstChunk, Size: S})
				m = e.and(vr, m, c)
			}
			// Data-dependent branch, then the action over the tuple
			// registers already loaded.
			match := w.tupleMatch(i)
			e.emit(isa.MicroOp{Class: isa.Branch, Src1: m, Taken: match})
			if match {
				act.match(e, i, firstChunk)
			}
		}
		// Loop overhead once per unrolled group.
		e.loopTail(vr, group != groups-1)
		group++
		return true
	}}
}

// q1x86Column generates the AVX column-at-a-time Q01 aggregation over
// the DSM layout: per chunk, compare the shipdate filter into a lane
// mask, load the key and measure columns, and for every group build the
// membership mask (two key compares ANDed with the filter) and fold the
// masked lanes into vector accumulators — branchless masked
// accumulation, the column-store analogue of Figure 1b extended with a
// grouped reduction.
func (w *Workload) q1x86Column() *chunkedStream {
	p := w.Plan
	S := p.OpSize
	chunks := w.Table.N * db.ColumnWidth / int(S)
	groups := (chunks + p.Unroll - 1) / p.Unroll
	st := w.Desc.Stages[0]
	vr := &vregs{}
	acc := &cpuAcc{vr: vr}
	group := 0

	return &chunkedStream{next: func(e *emitter) bool {
		if group >= groups {
			return false
		}
		e.reset(0x8800)
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			load := func(col int) isa.Reg {
				d := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: d,
					Addr: w.DSM.ColBase[col] + mem.Addr(c)*mem.Addr(S), Size: S})
				return d
			}
			ship := load(st.Col)
			m := isa.RegNone
			for range st.Bounds {
				cr := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.VecCmp, Dst: cr, Src1: ship, Size: S})
				m = e.and(vr, m, cr)
			}
			rfv := load(db.FieldReturnFlag)
			lsv := load(db.FieldLineStatus)
			qty := load(db.FieldQuantity)
			price := load(db.FieldExtendedPrice)
			disc := load(db.FieldDiscount)
			rev := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.VecALU, Dst: rev, Src1: price, Src2: disc, Size: S})
			for g := 0; g < w.Desc.Groups; g++ {
				ka, kb := vr.fresh(), vr.fresh()
				e.emit(isa.MicroOp{Class: isa.VecCmp, Dst: ka, Src1: rfv, Size: S})
				e.emit(isa.MicroOp{Class: isa.VecCmp, Dst: kb, Src1: lsv, Size: S})
				km := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: km, Src1: ka, Src2: kb})
				gm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gm, Src1: km, Src2: m})
				masked := func(src isa.Reg) isa.Reg {
					t := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.VecALU, Dst: t, Src1: src, Src2: gm, Size: S})
					return t
				}
				acc.add(e, isa.IntALU, g, AggCount, gm)
				acc.add(e, isa.IntALU, g, AggQty, masked(qty))
				acc.add(e, isa.IntALU, g, AggPrice, masked(price))
				acc.add(e, isa.IntALU, g, AggRevenue, masked(rev))
			}
		}
		e.loopTail(vr, group != groups-1)
		group++
		return true
	}}
}

// x86Column generates the AVX column-at-a-time scan over the DSM layout:
// three passes (shipdate, discount, quantity), each producing/refining a
// packed bitmask in memory — the paper's Figure 1b flow. Branchless
// except for loop control.
func (w *Workload) x86Column() *chunkedStream {
	p := w.Plan
	S := p.OpSize
	maskBytes := isa.MaskBytes(S)
	chunks := w.Table.N * db.ColumnWidth / int(S)
	groups := (chunks + p.Unroll - 1) / p.Unroll
	stages := w.Desc.Stages
	vr := &vregs{}
	stage := 0
	group := 0
	regs := make([]isa.Reg, 0, 2) // a chunk's bound compares, reused chunk to chunk

	return &chunkedStream{next: func(e *emitter) bool {
		if stage >= len(stages) {
			return false
		}
		st := stages[stage]
		col := st.Col
		e.reset(uint64(0x2000 + 0x400*stage))
		first, last := blockBounds(group, p.Unroll, chunks)
		for c := first; c < last; c++ {
			dataAddr := w.DSM.ColBase[col] + mem.Addr(c)*mem.Addr(S)
			maskAddr := w.MaskBase[col] + mem.Addr(c)*mem.Addr(maskBytes)
			d := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Load, Dst: d, Addr: dataAddr, Size: S})
			m := vr.fresh()
			// Refinement stages reload the previous column's bitmask.
			var prev isa.Reg
			if stage > 0 {
				prev = vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Load, Dst: prev,
					Addr: w.MaskBase[stages[stage-1].Col] + mem.Addr(c)*mem.Addr(maskBytes), Size: maskBytes})
			}
			// One vector compare per stage bound, then mask combines.
			regs = regs[:0]
			for range st.Bounds {
				r := vr.fresh()
				regs = append(regs, r)
				e.emit(isa.MicroOp{Class: isa.VecCmp, Dst: r, Src1: d, Size: S})
			}
			cur := regs[0]
			for _, r := range regs[1:] {
				dst := m
				if stage > 0 {
					dst = vr.fresh() // intermediate: the prev-mask AND still follows
				}
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: dst, Src1: cur, Src2: r})
				cur = dst
			}
			switch {
			case stage > 0:
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: m, Src1: cur, Src2: prev})
			case len(regs) == 1:
				m = cur // single unrefined bound: the compare is the mask
			}
			e.emit(isa.MicroOp{Class: isa.Store, Addr: maskAddr, Size: maskBytes, Src1: m})
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
