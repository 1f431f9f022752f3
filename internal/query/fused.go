package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// hiveFusedColumn generates HIVE's best-case column scan (the paper's
// Figure 3d "full scan in columns"): one pass in which every chunk's
// predicate columns are loaded unconditionally, compared, and
// AND-combined in the register bank, storing only the final bitmask. No
// intermediate bitmask ever reaches the processor and no branch depends
// on in-memory data — but, unlike HIPE, nothing is skipped either: every
// predicate column is always read, which is where HIPE's DRAM energy
// saving comes from.
//
// The plan keeps HIPE's wave depth and register map with the predicates
// removed, so the measured HIPE-vs-HIVE gap isolates the cost of
// predication itself: the extra sequencer occupancy of every predicated
// instruction's flag read and the data dependencies on flag producers.
// Its phases differ from HIPE's in one way: free of predicates, the plan
// hoists each chunk's next-column load into the data register right
// behind that chunk's compare, where HIPE loads a whole wave's column
// before comparing any of it.
func (w *Workload) hiveFusedColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	maskBytes := isa.MaskBytes(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	stages := w.Desc.Stages
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	const tmpA, tmpB = 30, 31
	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIVE}
	block := 0

	return &chunkedStream{next: func(e *emitter) bool {
		if block >= blocks {
			return false
		}
		e.reset(0x6800)
		first, last := blockBounds(block, p.Unroll, chunks)

		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for ws := first; ws < last; ws += hipeWave {
			we := min(ws+hipeWave, last)
			regX := func(k int) uint8 { return uint8(k - ws) }
			regM := func(k int) uint8 { return uint8(hipeWave + k - ws) }
			// Hoisted loads of the first predicate column.
			for k := ws; k < we; k++ {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
					Addr: w.DSM.ColBase[stages[0].Col] + mem.Addr(k*S), Size: p.OpSize})
			}
			// Per stage and chunk: compare the column, refine the running
			// mask, then load the chunk's next column into its data
			// register — or, after the last stage, store the bitmask.
			for s, st := range stages {
				for k := ws; k < we; k++ {
					// The stage's bounds combine into the mask register on
					// the first stage and into a temporary after it; a
					// single bound compares straight into that register.
					and := uint8(tmpA)
					if s == 0 {
						and = regM(k)
					}
					dst := [2]uint8{tmpA, tmpB}
					for i, b := range st.Bounds {
						d := dst[i]
						if len(st.Bounds) == 1 {
							d = and
						}
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: b.Kind,
							Dst: d, Src1: regX(k), UseImm: true, Imm: b.Imm})
					}
					if len(st.Bounds) == 2 {
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And, Dst: and, Src1: tmpA, Src2: tmpB})
					}
					if s > 0 {
						oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And, Dst: regM(k), Src1: tmpA, Src2: regM(k)})
					}
					if s < len(stages)-1 {
						oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: regX(k),
							Addr: w.DSM.ColBase[stages[s+1].Col] + mem.Addr(k*S), Size: p.OpSize})
					} else {
						oc.emit(e, isa.OffloadInst{Op: isa.VMaskStore, Src1: regM(k),
							Addr: w.FinalMask + mem.Addr(k)*mem.Addr(maskBytes), Size: p.OpSize,
							Check: true, Expect: w.expectAt(w.prefixExp[s], k)})
					}
				}
			}
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
		return true
	}}
}

// q1hipeColumn generates the HIPE predicated one-pass Q01 aggregation —
// the paper's predication argument applied to a grouped aggregate. Each
// chunk's shipdate filter computes into a mask register whose zero flag
// then gates, inside the memory, (a) the key and measure column loads —
// chunks wholly past the cutoff never touch DRAM — and (b) every
// group's masked accumulation, each predicated on its own membership
// mask's flag, so a group absent from a chunk costs squashed sequencer
// slots instead of functional-unit operations and flag waits. No
// bitmask ever travels to the processor and no branch depends on
// in-memory data.
func (w *Workload) q1hipeColumn() *chunkedStream {
	p := w.Plan
	S := int(p.OpSize)
	tuplesPerChunk := S / db.ColumnWidth
	chunks := w.Table.N / tuplesPerChunk
	st := w.Desc.Stages[0]
	blocks := (chunks + p.Unroll - 1) / p.Unroll

	vr := &vregs{}
	oc := &offloadChain{vr: vr, target: isa.TargetHIPE}
	setupDone := false
	block := 0
	nz := func(reg uint8) isa.Predicate {
		return isa.Predicate{Valid: true, Reg: reg, WhenZero: false}
	}

	return &chunkedStream{next: func(e *emitter) bool {
		if !setupDone {
			setupDone = true
			// One-time block: load the lane-validity row (sub-register
			// chunks would otherwise leak tail-lane mask bits into the
			// accumulators) and zero the accumulator registers.
			e.reset(0xC000)
			oc.emit(e, isa.OffloadInst{Op: isa.Lock})
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: q1RegValid, Addr: w.ValidRow, Size: 256})
			w.q1ClearAccs(e, oc)
			oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
			return true
		}
		if block >= blocks {
			return false
		}
		e.reset(0xC100)
		first, last := blockBounds(block, p.Unroll, chunks)
		oc.emit(e, isa.OffloadInst{Op: isa.Lock})
		for c := first; c < last; c++ {
			// Filter stage: unpredicated shipdate load and compare,
			// confined to the chunk's real lanes.
			oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: q1RegShip,
				Addr: w.DSM.ColBase[st.Col] + mem.Addr(c*S), Size: p.OpSize})
			dst := [2]uint8{q1RegTmpA, q1RegTmpB}
			for i, b := range st.Bounds {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: b.Kind,
					Dst: dst[i], Src1: q1RegShip, UseImm: true, Imm: b.Imm})
			}
			if len(st.Bounds) == 2 {
				oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
					Dst: q1RegTmpA, Src1: q1RegTmpA, Src2: q1RegTmpB})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
				Dst: q1RegFilter, Src1: q1RegTmpA, Src2: q1RegValid})
			// Key and measure loads, predicated on the filter flag:
			// chunks wholly past the cutoff never touch DRAM.
			for _, ld := range q1Columns {
				oc.emit(e, isa.OffloadInst{Op: isa.VLoad, Dst: ld.reg,
					Addr: w.DSM.ColBase[ld.col] + mem.Addr(c*S), Size: p.OpSize,
					Pred: nz(q1RegFilter)})
			}
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Mul,
				Dst: q1RegRev, Src1: q1RegPrice, Src2: q1RegDisc, Pred: nz(q1RegFilter)})
			w.q1EmitGroups(e, oc)
		}
		if block == blocks-1 {
			w.q1SpillAccs(e, oc)
		}
		oc.emitUnlock(e)
		e.emit(isa.MicroOp{Class: isa.Branch, Taken: block != blocks-1})
		block++
		return true
	}}
}
