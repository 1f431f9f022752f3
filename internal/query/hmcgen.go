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
	lanePattern := w.patternLanes()

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
			wantGE, wantLE := w.expectPatternMasks(firstTuple, S)

			g, l := vr.fresh(), vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Offload, Dst: g, Offload: &isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
				Addr: addr, Size: p.OpSize, Pattern: lanePattern,
				OnResult: func(r []byte) { w.check(r, wantGE) },
			}})
			e.emit(isa.MicroOp{Class: isa.Offload, Dst: l, Offload: &isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: addr, Size: p.OpSize, Pattern: w.patternLanesLE(),
				OnResult: func(r []byte) { w.check(r, wantLE) },
			}})
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

// patternLanes returns the GE pattern truncated/tiled to the instruction
// immediate (at most one tuple of 16 lanes, fewer for sub-tuple ops).
func (w *Workload) patternLanes() []int32 {
	n := int(w.Plan.OpSize) / 4
	if n > db.NumFields {
		n = db.NumFields
	}
	return w.patGE[:n]
}

func (w *Workload) patternLanesLE() []int32 {
	n := int(w.Plan.OpSize) / 4
	if n > db.NumFields {
		n = db.NumFields
	}
	return w.patLE[:n]
}

// expectColCmp computes the packed bitmask a lane-uniform CmpRead over
// column values [t0, t0+n) must return.
func (w *Workload) expectColCmp(col int, kind isa.ALUKind, imm int32, t0, n int) []byte {
	vals := w.columnValues(col)
	lanes := make([]byte, n*4)
	for i := 0; i < n; i++ {
		v := vals[t0+i]
		hit := false
		switch kind {
		case isa.CmpGE:
			hit = v >= imm
		case isa.CmpLE:
			hit = v <= imm
		case isa.CmpLT:
			hit = v < imm
		case isa.CmpGT:
			hit = v > imm
		case isa.CmpEQ:
			hit = v == imm
		case isa.CmpNE:
			hit = v != imm
		}
		if hit {
			isa.SetLane(lanes, i, -1)
		}
	}
	out := make([]byte, isa.MaskBytes(uint32(n*4)))
	isa.CompactMask(out, lanes, n*4)
	return out
}

func (w *Workload) columnValues(col int) []int32 {
	return columnSlice(w.Table, col)
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
	lanePattern := w.patternLanesLE()

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
			addr := w.NSM.Base + mem.Addr(c*stride)
			_, wantLE := w.expectPatternMasks(firstTuple, S)

			m := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.Offload, Dst: m, Offload: &isa.OffloadInst{
				Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLE,
				Addr: addr, Size: p.OpSize, Pattern: lanePattern,
				OnResult: func(r []byte) { w.check(r, wantLE) },
			}})
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
			t0 := c * tuplesPerChunk
			cmpRead := func(col int, kind isa.ALUKind, imm int32) isa.Reg {
				want := w.expectColCmp(col, kind, imm, t0, tuplesPerChunk)
				r := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.Offload, Dst: r, Offload: &isa.OffloadInst{
					Target: isa.TargetHMC, Op: isa.CmpRead, ALU: kind,
					Addr: w.DSM.ColBase[col] + mem.Addr(c*S), Size: p.OpSize, Imm: imm,
					OnResult: func(r []byte) { w.check(r, want) },
				}})
				return r
			}
			// Filter bitmask in the vault.
			m := isa.RegNone
			for _, b := range st.Bounds {
				r := cmpRead(st.Col, b.Kind, b.Imm)
				if m == isa.RegNone {
					m = r
				} else {
					nm := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: r})
					m = nm
				}
			}
			// Key bitmasks in the vault, one compare per distinct value.
			rfMask := make([]isa.Reg, db.RFValues)
			for v := range rfMask {
				rfMask[v] = cmpRead(db.FieldReturnFlag, isa.CmpEQ, int32(v))
			}
			lsMask := make([]isa.Reg, db.LSValues)
			for v := range lsMask {
				lsMask[v] = cmpRead(db.FieldLineStatus, isa.CmpEQ, int32(v))
			}
			// Measure columns reload through the cache hierarchy, in
			// line-sized pieces.
			load := func(col int) isa.Reg {
				base := w.DSM.ColBase[col] + mem.Addr(c*S)
				var d isa.Reg
				for off := 0; off < S; off += 64 {
					piece := S - off
					if piece > 64 {
						piece = 64
					}
					d = vr.fresh()
					e.emit(isa.MicroOp{Class: isa.Load, Dst: d,
						Addr: base + mem.Addr(off), Size: uint32(piece)})
				}
				return d
			}
			qty := load(db.FieldQuantity)
			price := load(db.FieldExtendedPrice)
			disc := load(db.FieldDiscount)
			rev := vr.fresh()
			e.emit(isa.MicroOp{Class: isa.IntMul, Dst: rev, Src1: price, Src2: disc})
			for g := 0; g < w.Desc.Groups; g++ {
				rf, ls := groupKey(g)
				km := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: km, Src1: rfMask[rf], Src2: lsMask[ls]})
				gm := vr.fresh()
				e.emit(isa.MicroOp{Class: isa.IntALU, Dst: gm, Src1: km, Src2: m})
				masked := func(src isa.Reg) isa.Reg {
					t := vr.fresh()
					e.emit(isa.MicroOp{Class: isa.IntALU, Dst: t, Src1: src, Src2: gm})
					return t
				}
				acc.add(e.emit, isa.IntALU, g, AggCount, gm)
				acc.add(e.emit, isa.IntALU, g, AggQty, masked(qty))
				acc.add(e.emit, isa.IntALU, g, AggPrice, masked(price))
				acc.add(e.emit, isa.IntALU, g, AggRevenue, masked(rev))
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
			t0 := c * tuplesPerChunk
			dataAddr := w.DSM.ColBase[col] + mem.Addr(c*S)
			var results []isa.Reg
			// One load-compare per stage bound, straight from the
			// description.
			for _, cm := range st.Bounds {
				cm := cm
				want := w.expectColCmp(col, cm.Kind, cm.Imm, t0, tuplesPerChunk)
				r := vr.fresh()
				results = append(results, r)
				e.emit(isa.MicroOp{Class: isa.Offload, Dst: r, Offload: &isa.OffloadInst{
					Target: isa.TargetHMC, Op: isa.CmpRead, ALU: cm.Kind,
					Addr: dataAddr, Size: p.OpSize, Imm: cm.Imm,
					OnResult: func(r []byte) { w.check(r, want) },
				}})
			}
			m := results[0]
			for _, r := range results[1:] {
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
