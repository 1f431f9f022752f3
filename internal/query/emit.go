// Shared µop-stream plumbing for the generators of every backend: the
// PC-tracking emitter every generator writes through, the per-block
// loop epilogue, the in-order offload chain, and the accumulator
// clear/spill/verify epilogues of the engine aggregation plans. Each
// generator once carried its own copy of this code; the golden stream
// tests pin that the shared helpers emit byte-identical µops.
package query

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
)

// emitter accumulates one chunked-stream block: µops append with
// auto-incrementing PCs, 4 bytes apart — the instruction spacing all
// generators share. The block's offload instructions append by value to
// a second buffer, in µop order; an offload µop leaves the emitter with
// a nil Offload, and the stream points it at its instruction as it
// hands the µop out. Each stream owns one emitter, and every block
// starts with reset, so the stream's two buffers hold every block in
// turn.
type emitter struct {
	pc    uint64
	ops   []isa.MicroOp
	insts []isa.OffloadInst
}

// reset starts a new block at pc in the emitter's buffers. The old
// block's entries are overwritten, not cleared: µops carry no pointer
// out of the buffers, and an instruction's only pointer, its Pattern,
// points into the workload's pattern rows, which the stream keeps
// alive anyway.
func (e *emitter) reset(pc uint64) {
	e.ops = e.ops[:0]
	e.insts = e.insts[:0]
	e.pc = pc
}

// emit appends one µop at the current PC.
func (e *emitter) emit(u isa.MicroOp) {
	u.PC = e.pc
	e.pc += 4
	e.ops = append(e.ops, u)
}

// offload appends an offload µop carrying inst.
func (e *emitter) offload(dst, src1 isa.Reg, inst isa.OffloadInst) {
	e.insts = append(e.insts, inst)
	e.emit(isa.MicroOp{Class: isa.Offload, Dst: dst, Src1: src1})
}

// loopTail emits the per-block loop overhead every processor-driven
// generator repeats: the induction-variable update and the backward
// branch, taken while more blocks follow.
func (e *emitter) loopTail(vr *vregs, more bool) {
	e.emit(isa.MicroOp{Class: isa.IntALU, Dst: vr.fresh()})
	e.emit(isa.MicroOp{Class: isa.Branch, Taken: more})
}

// and ANDs the compare result c into the running mask m — c itself
// while there is none yet — and returns the new running mask.
func (e *emitter) and(vr *vregs, m, c isa.Reg) isa.Reg {
	if m == isa.RegNone {
		return c
	}
	nm := vr.fresh()
	e.emit(isa.MicroOp{Class: isa.IntALU, Dst: nm, Src1: m, Src2: c})
	return nm
}

// pcBase picks a generator's PC base by what the plan does with its
// matches. PCs index the branch predictor and the golden streams pin
// them, so a selection and an aggregation each keep their own base.
func (w *Workload) pcBase(sel, agg uint64) uint64 {
	if w.Desc.Grouped() {
		return agg
	}
	return sel
}

// blockBounds returns the half-open [first, last) item range of block b
// when items are processed per at a time out of total.
func blockBounds(b, per, total int) (first, last int) {
	first = b * per
	last = first + per
	if last > total {
		last = total
	}
	return first, last
}

// offloadChain forces the processor to issue an engine's instructions in
// program order: each offload µop depends on its predecessor, modelling
// the in-order instruction stream a real host controller maintains.
type offloadChain struct {
	vr     *vregs
	target isa.Target // the engine every instruction of the chain goes to
	chain  isa.Reg
}

// emit appends inst, addressed to the chain's engine.
func (oc *offloadChain) emit(e *emitter, inst isa.OffloadInst) isa.Reg {
	inst.Target = oc.target
	dst := oc.vr.fresh()
	e.offload(dst, oc.chain, inst)
	oc.chain = dst
	return dst
}

// emitUnlock emits the block-ending unlock WITHOUT advancing the chain:
// the next block streams toward the engine while this block drains (the
// engine's in-order queue still serialises execution), and only the
// processor-side consumers of the block's results (bitmask fetches) wait
// on the returned ack register. Issue order of the unlock versus the
// next block's first instruction is preserved because both depend on the
// same predecessor and the core's ready queue and single load port keep
// FIFO order.
func (oc *offloadChain) emitUnlock(e *emitter) isa.Reg {
	pre := oc.chain
	ack := oc.emit(e, isa.OffloadInst{Op: isa.Unlock})
	oc.chain = pre
	return ack
}

// laneSum folds a spilled 256 B accumulator register's 64 lanes into
// the scalar the reference evaluator reports — the verify side of the
// accumulator-spill epilogue, shared by the Q06 revenue extension and
// every (group, aggregate) check of the Q01 plans.
func laneSum(image []byte, base mem.Addr) int64 {
	acc := image[uint64(base) : uint64(base)+isa.RegisterBytes]
	var sum int64
	for i := 0; i < isa.LanesPerReg; i++ {
		sum += int64(isa.LaneAt(acc, i))
	}
	return sum
}

// Q01 register-bank allocation shared by the engine aggregation plans.
// Every (group, aggregate) pair keeps a live accumulator register, so
// the wave depth collapses to one chunk — the register-pressure cost of
// grouped aggregation, the same trade the paper discusses for
// predication (§III): more live state per chunk, less software
// pipelining.
const (
	q1RegFilter = 0 // filter mask (HIPE: compare result; HIVE: mask reload)
	q1RegRf     = 1 // returnflag chunk
	q1RegLs     = 2 // linestatus chunk
	q1RegQty    = 3 // quantity chunk
	q1RegPrice  = 4 // extendedprice chunk
	q1RegDisc   = 5 // discount chunk
	q1RegRev    = 6 // per-lane discounted revenue (price × discount)
	q1RegTmpA   = 7
	q1RegTmpB   = 8
	q1RegGroup  = 9  // current group-membership mask
	q1RegShip   = 10 // shipdate chunk (HIPE one-pass only)
	q1RegValid  = 11 // lane-validity mask (HIPE one-pass only)
	q1RegAcc    = 12 // accumulators: q1RegAcc + g*NumAggs + agg
)

// q1AccReg names the (group, aggregate) accumulator register.
func q1AccReg(g, agg int) uint8 { return uint8(q1RegAcc + g*NumAggs + agg) }

// q1Columns is the key/measure column load order of the engine plans.
var q1Columns = [...]struct {
	reg uint8
	col int
}{
	{q1RegRf, db.FieldReturnFlag},
	{q1RegLs, db.FieldLineStatus},
	{q1RegQty, db.FieldQuantity},
	{q1RegPrice, db.FieldExtendedPrice},
	{q1RegDisc, db.FieldDiscount},
}

// q1EmitGroups emits the per-group masked accumulation for one chunk:
// the two key compares AND the filter mask into the membership mask,
// COUNT accumulates by lane-subtracting the all-ones mask, and the
// three sums AND their measure vector with the mask before adding. On
// HIPE every mask-building and masking instruction is predicated — on
// the filter flag first, then on the group mask's own zero flag, so a
// group absent from a chunk squashes its accumulation inside the
// memory. The running Adds/Subs stay unpredicated: a squash zeroes its
// temp operand (zeroing-mask semantics), never the accumulator.
func (w *Workload) q1EmitGroups(e *emitter, oc *offloadChain) {
	predicated := oc.target == isa.TargetHIPE
	nzF := isa.Predicate{}
	if predicated {
		nzF = isa.Predicate{Valid: true, Reg: q1RegFilter, WhenZero: false}
	}
	for g := 0; g < w.Desc.Groups; g++ {
		rf, ls := groupKey(g)
		oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpEQ,
			Dst: q1RegTmpA, Src1: q1RegRf, UseImm: true, Imm: rf, Pred: nzF})
		oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpEQ,
			Dst: q1RegTmpB, Src1: q1RegLs, UseImm: true, Imm: ls, Pred: nzF})
		oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
			Dst: q1RegTmpA, Src1: q1RegTmpA, Src2: q1RegTmpB, Pred: nzF})
		oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
			Dst: q1RegGroup, Src1: q1RegTmpA, Src2: q1RegFilter, Pred: nzF})
		nzG := isa.Predicate{}
		if predicated {
			nzG = isa.Predicate{Valid: true, Reg: q1RegGroup, WhenZero: false}
		}
		// COUNT: the mask lanes are -1 per member, so subtracting the
		// mask adds one per member.
		oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Sub,
			Dst: q1AccReg(g, AggCount), Src1: q1AccReg(g, AggCount), Src2: q1RegGroup})
		for _, ma := range [...]struct {
			agg int
			src uint8
		}{
			{AggQty, q1RegQty}, {AggPrice, q1RegPrice}, {AggRevenue, q1RegRev},
		} {
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.And,
				Dst: q1RegTmpB, Src1: ma.src, Src2: q1RegGroup, Pred: nzG})
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Add,
				Dst: q1AccReg(g, ma.agg), Src1: q1AccReg(g, ma.agg), Src2: q1RegTmpB})
		}
	}
}

// q1ClearAccs emits the accumulator initialisation: every (group,
// aggregate) register XORs with itself to zero. The filter pass (HIVE)
// reuses the high registers for chunk data, so the aggregation pass
// cannot assume a pristine bank.
func (w *Workload) q1ClearAccs(e *emitter, oc *offloadChain) {
	for g := 0; g < w.Desc.Groups; g++ {
		for agg := 0; agg < NumAggs; agg++ {
			r := q1AccReg(g, agg)
			oc.emit(e, isa.OffloadInst{Op: isa.VALU, ALU: isa.Xor, Dst: r, Src1: r, Src2: r})
		}
	}
}

// q1SpillAccs emits the final accumulator spill: every (group,
// aggregate) register stores its per-lane partial sums to the AccRegion
// so the processor — and verification — can read them.
func (w *Workload) q1SpillAccs(e *emitter, oc *offloadChain) {
	for g := 0; g < w.Desc.Groups; g++ {
		for agg := 0; agg < NumAggs; agg++ {
			oc.emit(e, isa.OffloadInst{Op: isa.VStore,
				Src1: q1AccReg(g, agg), Addr: w.accAddr(g, agg), Size: isa.RegisterBytes})
		}
	}
}
