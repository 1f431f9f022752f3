// Package core implements the paper's contribution: the HIPE engine — an
// instruction sequencer in the HMC logic layer with a 36×256 B
// interlocked register bank, unified vector functional units, and the
// predication match logic that turns control-flow dependencies into
// data-flow dependencies inside the memory.
//
// The same machinery, with predication disabled, is the balanced HIVE
// design the paper evaluates as prior work (Alves et al., "Large vector
// extensions inside the HMC", DATE 2016, resized to 256 B operands and
// 36 registers); DefaultHIVE instantiates that mode. HIVE has no
// predication match logic, so control-flow decisions over in-memory data
// must round-trip through the processor.
//
// Mechanism summary (paper §III):
//
//   - Instructions arrive from the processor over the SerDes links into
//     an instruction buffer and execute in order at the 1 GHz engine
//     clock.
//   - Three instruction classes: lock/unlock (register-bank ownership),
//     load/store (DRAM ↔ register bank), and ALU operations.
//   - The register bank is interlocked: a load marks its destination
//     pending and execution continues; only an instruction that *uses* a
//     pending register stalls. This overlaps computation with DRAM
//     accesses.
//   - Every register write also stores a zero flag. A HIPE instruction
//     may carry a predicate naming a register and a wanted flag value;
//     the predication match logic squashes the instruction (no DRAM
//     access, no FU occupancy — one sequencer slot only) when the flag
//     does not match. Waiting for the predicate register's flag is a real
//     data dependency and is the 15% performance cost the paper reports
//     against HIVE; the squashed DRAM reads are the energy win.
package core

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/dram"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/link"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Config parameterises the engine.
type Config struct {
	// Name is the stats scope ("hipe", "hive").
	Name string
	// Target declares which ISA the engine accepts; predication is only
	// legal when Target == isa.TargetHIPE.
	Target isa.Target

	// ClockDivider is CPU cycles per engine cycle (2 ⇒ 1 GHz under the
	// paper's 2 GHz core).
	ClockDivider sim.Cycle
	// Width is instructions issued per engine cycle.
	Width int

	// Functional-unit latencies in CPU cycles (Table I).
	IntALULatency sim.Cycle // 2
	IntMulLatency sim.Cycle // 6
	IntDivLatency sim.Cycle // 40
	FPALULatency  sim.Cycle // 10
	FPMulLatency  sim.Cycle // 10
	FPDivLatency  sim.Cycle // 40

	// InstructionVault routes instruction packets on the links (all
	// engine instructions share one ordered path to the sequencer).
	InstructionVault uint32

	// PredExtraSlots is the additional sequencer occupancy of a
	// predicated instruction: the predication match logic reads the
	// predicate register's zero flag through a dedicated port before the
	// instruction may issue, costing extra engine cycles. This — plus
	// the stalls waiting for flags of in-flight producers — is the
	// "additional data dependencies" cost the paper measures as HIPE
	// losing ~15% against HIVE.
	PredExtraSlots int

	// ZeroingSquash makes a squashed predicated instruction zero its
	// destination register and set its zero flag (AVX-512 zeroing-mask
	// style) instead of leaving it unchanged. This lets plans chain
	// predicates (stage 3 predicated on stage 2's result even when stage
	// 2 was itself squashed) without reading stale flags. The paper does
	// not pin this down; the ablation bench compares both.
	ZeroingSquash bool
}

// DefaultHIPE returns the paper's HIPE engine configuration.
func DefaultHIPE() Config {
	return Config{
		Name:          "hipe",
		Target:        isa.TargetHIPE,
		ClockDivider:  2,
		Width:         2,
		IntALULatency: 2, IntMulLatency: 6, IntDivLatency: 40,
		FPALULatency: 10, FPMulLatency: 10, FPDivLatency: 40,
		PredExtraSlots: 1,
		ZeroingSquash:  true,
	}
}

// DefaultHIVE returns the balanced HIVE design the paper evaluates
// (identical resources, no predication).
func DefaultHIVE() Config {
	c := DefaultHIPE()
	c.Name = "hive"
	c.Target = isa.TargetHIVE
	return c
}

// Validate rejects broken configurations.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: empty name")
	}
	if c.Target != isa.TargetHIVE && c.Target != isa.TargetHIPE {
		return fmt.Errorf("core: target %s is not an engine ISA", c.Target)
	}
	if c.ClockDivider == 0 || c.Width <= 0 {
		return fmt.Errorf("core: bad clocking %+v", c)
	}
	for _, l := range []sim.Cycle{c.IntALULatency, c.IntMulLatency, c.IntDivLatency,
		c.FPALULatency, c.FPMulLatency, c.FPDivLatency} {
		if l == 0 {
			return fmt.Errorf("core: zero FU latency")
		}
	}
	return nil
}

// register is one entry of the interlocked register bank.
type register struct {
	data    [isa.RegisterBytes]byte
	zero    bool
	pending bool
}

// rowFetch tracks one logic-layer row read and the mask loads waiting on
// it. A superseded fetch (the buffer moved to another row) still
// completes its own waiters when its DRAM read returns. Fetches are
// pooled: one returns to the free list once it is both finished and no
// longer the engine's current read buffer.
type rowFetch struct {
	e       *Engine
	row     mem.Addr
	done    bool
	doneAt  sim.Cycle
	waiting []func(now sim.Cycle)
	doneFn  func(now sim.Cycle) // pre-bound DRAM completion
}

func (f *rowFetch) fetchDone(now sim.Cycle) {
	f.done = true
	f.doneAt = now
	for _, wfn := range f.waiting {
		wfn(now)
	}
	f.waiting = f.waiting[:0]
	if f.e.maskRead != f {
		// Superseded while in flight: nothing references it any more.
		f.e.rfFree = append(f.e.rfFree, f)
	}
}

// subOp is one pooled Submit context: the engine's own copy of the
// instruction, its link packet and the pre-bound callbacks for its cube
// arrival and (for acknowledged instructions) its response delivery. It
// waits in the in-order queue until the instruction issues — posted
// instructions issue long after the core has retired their µops.
type subOp struct {
	e     *Engine
	inst  isa.OffloadInst
	done  func(now sim.Cycle)
	acked bool
	pkt   link.Packet

	execFn    func(p *link.Packet)
	deliverFn func(now sim.Cycle)
}

// exec runs cube-side on instruction arrival: enter the in-order queue.
func (op *subOp) exec(*link.Packet) {
	op.e.queue.Push(op)
	op.e.domain.Kick()
}

// complete releases the instruction's link context once it has issued;
// for acknowledged instructions (Unlock) it serialises the response to
// the CPU.
func (op *subOp) complete() {
	if op.acked {
		// The response packet releases the op at delivery.
		op.pkt.Complete()
		return
	}
	op.release()
}

// deliver fires requester-side when an acknowledgement arrives.
func (op *subOp) deliver(now sim.Cycle) {
	done := op.done
	op.release()
	if done != nil {
		done(now)
	}
}

func (op *subOp) release() {
	op.inst, op.done = isa.OffloadInst{}, nil
	op.e.subFree = append(op.e.subFree, op)
}

// ldOp is one pooled vector-load completion: fills the destination
// register from the image when the DRAM fan-out finishes.
type ldOp struct {
	e    *Engine
	dst  *register
	addr mem.Addr
	size uint32
	fn   func(now sim.Cycle) // pre-bound completion
}

func (op *ldOp) complete(sim.Cycle) {
	dst := op.dst
	copy(dst.data[:op.size], op.e.image[op.addr:uint64(op.addr)+uint64(op.size)])
	dst.zero = isa.IsZero(dst.data[:], int(op.size))
	dst.pending = false
	op.dst = nil
	op.e.ldFree = append(op.e.ldFree, op)
}

// mlOp is one pooled mask-load fill: expands the packed bitmask into
// the destination register when its row data is available.
type mlOp struct {
	e    *Engine
	dst  *register
	addr mem.Addr
	nb   uint32
	size uint32
	fn   func(now sim.Cycle) // pre-bound fill
}

func (op *mlOp) fill(sim.Cycle) {
	dst := op.dst
	packed := op.e.image[op.addr : uint64(op.addr)+uint64(op.nb)]
	isa.ExpandMask(dst.data[:], packed, int(op.size))
	dst.zero = isa.IsZero(dst.data[:], int(op.size))
	dst.pending = false
	op.dst = nil
	op.e.mlFree = append(op.e.mlFree, op)
}

// aluOp is one pooled ALU completion: the result buffer plus the
// register writeback scheduled after the FU latency.
type aluOp struct {
	e   *Engine
	dst *register
	buf [isa.RegisterBytes]byte
}

// OnEvent implements sim.Handler: the FU latency elapsed; commit the
// result.
func (op *aluOp) OnEvent(sim.Cycle, uint64) {
	dst := op.dst
	copy(dst.data[:], op.buf[:])
	dst.zero = isa.IsZero(dst.data[:], len(dst.data))
	dst.pending = false
	op.dst = nil
	op.e.aluFree = append(op.e.aluFree, op)
}

// fanOp tracks one (possibly row-straddling) DRAM fan-out: the chunk
// requests share one reusable request struct (the vault consumes each
// synchronously), and the last completion forwards to done.
type fanOp struct {
	e         *Engine
	remaining int
	done      func(now sim.Cycle)
	req       mem.Request
	chunkFn   func(now sim.Cycle) // pre-bound per-chunk completion
}

func (op *fanOp) chunkDone(now sim.Cycle) {
	op.remaining--
	if op.remaining == 0 {
		done := op.done
		op.done = nil
		op.e.fanFree = append(op.e.fanFree, op)
		done(now)
	}
}

// Engine is a HIPE (or HIVE) logic-layer engine.
type Engine struct {
	cfg    Config
	engine *sim.Engine
	links  *link.Controller
	vaults *dram.HMC
	geom   mem.Geometry
	image  []byte

	regs    [isa.NumRegisters]register
	queue   sim.Queue[*subOp]
	checker isa.Checker

	locked            bool
	outstandingStores int
	domain            *sim.ClockDomain
	// stalls counts this tick's interlock and predicate stalls; Credit
	// adds them again for each tick the engine skipped.
	stalls struct{ interlock, pred uint64 }

	// Free lists for the pooled event objects of the hot instruction
	// path, plus pre-bound shared callbacks and the mask scratch buffer
	// (valid only within one VMaskStore; the checker compares and
	// discards it).
	subFree        []*subOp
	ldFree         []*ldOp
	mlFree         []*mlOp
	aluFree        []*aluOp
	fanFree        []*fanOp
	rfFree         []*rowFetch
	storeDrainedFn func(now sim.Cycle)
	maskScratch    [isa.RegisterBytes / 8]byte

	// maskBuf is the engine's bitmask write-combine buffer: one DRAM row
	// that accumulates VMaskStore output, so that 8-byte mask pieces do
	// not each pay a closed-page activation. Dirty contents flush as one
	// row write when the row changes or a lock block ends.
	maskBuf struct {
		valid bool
		dirty bool
		row   mem.Addr
	}
	// maskRead is the matching read-side row buffer: a VMaskLoad miss
	// fetches the whole row once and later same-row loads are served
	// from the logic layer (coalescing onto an in-flight fetch).
	maskRead *rowFetch

	instructions   *stats.Counter
	loads          *stats.Counter
	stores         *stats.Counter
	aluOps         *stats.Counter
	squashed       *stats.Counter
	squashedLoads  *stats.Counter
	squashedBytes  *stats.Counter
	interlockStall *stats.Counter
	predStall      *stats.Counter
	lockBlocks     *stats.Counter
	dramReadBytes  *stats.Counter
	dramWriteBytes *stats.Counter
	maskBufHits    *stats.Counter
	maskBufMisses  *stats.Counter
	maskBufFlushes *stats.Counter
}

// New builds an engine over the DRAM and link models. image is the
// functional backing store shared with the rest of the machine.
func New(engine *sim.Engine, cfg Config, links *link.Controller, vaults *dram.HMC, image []byte, reg *stats.Registry) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		engine: engine,
		links:  links,
		vaults: vaults,
		geom:   vaults.Geom,
		image:  image,
	}
	for i := range e.regs {
		e.regs[i].zero = true // fresh registers hold all-zero data
	}
	sc := reg.Scope(cfg.Name)
	e.instructions = sc.Counter("instructions")
	e.loads = sc.Counter("vloads")
	e.stores = sc.Counter("vstores")
	e.aluOps = sc.Counter("alu_ops")
	e.squashed = sc.Counter("squashed")
	e.squashedLoads = sc.Counter("squashed_loads")
	e.squashedBytes = sc.Counter("squashed_dram_bytes")
	e.interlockStall = sc.Counter("interlock_stall_cycles")
	e.predStall = sc.Counter("predicate_stall_cycles")
	e.lockBlocks = sc.Counter("lock_blocks")
	e.dramReadBytes = sc.Counter("dram_read_bytes")
	e.dramWriteBytes = sc.Counter("dram_write_bytes")
	e.maskBufHits = sc.Counter("maskbuf_hits")
	e.maskBufMisses = sc.Counter("maskbuf_misses")
	e.maskBufFlushes = sc.Counter("maskbuf_flushes")
	e.domain = sim.NewClockDomain(engine, cfg.ClockDivider, e)
	e.storeDrainedFn = func(sim.Cycle) { e.outstandingStores-- }
	return e, nil
}

// Pool accessors: each draws a free object or constructs one with its
// callbacks pre-bound (a one-time cost per pooled object).

func (e *Engine) getSub() *subOp {
	if n := len(e.subFree); n > 0 {
		op := e.subFree[n-1]
		e.subFree = e.subFree[:n-1]
		return op
	}
	op := &subOp{e: e}
	op.execFn = op.exec
	op.deliverFn = op.deliver
	return op
}

func (e *Engine) getLd() *ldOp {
	if n := len(e.ldFree); n > 0 {
		op := e.ldFree[n-1]
		e.ldFree = e.ldFree[:n-1]
		return op
	}
	op := &ldOp{e: e}
	op.fn = op.complete
	return op
}

func (e *Engine) getMl() *mlOp {
	if n := len(e.mlFree); n > 0 {
		op := e.mlFree[n-1]
		e.mlFree = e.mlFree[:n-1]
		return op
	}
	op := &mlOp{e: e}
	op.fn = op.fill
	return op
}

func (e *Engine) getAlu() *aluOp {
	if n := len(e.aluFree); n > 0 {
		op := e.aluFree[n-1]
		e.aluFree = e.aluFree[:n-1]
		return op
	}
	return &aluOp{e: e}
}

func (e *Engine) getFan() *fanOp {
	if n := len(e.fanFree); n > 0 {
		op := e.fanFree[n-1]
		e.fanFree = e.fanFree[:n-1]
		return op
	}
	op := &fanOp{e: e}
	op.chunkFn = op.chunkDone
	return op
}

func (e *Engine) getRowFetch(row mem.Addr) *rowFetch {
	var f *rowFetch
	if n := len(e.rfFree); n > 0 {
		f = e.rfFree[n-1]
		e.rfFree = e.rfFree[:n-1]
	} else {
		f = &rowFetch{e: e}
		f.doneFn = f.fetchDone
	}
	f.row = row
	f.done = false
	f.doneAt = 0
	f.waiting = f.waiting[:0]
	return f
}

// SetChecker installs the checker that receives the results of checked
// instructions (nil: results go unreported).
func (e *Engine) SetChecker(c isa.Checker) { e.checker = c }

// Submit implements the processor offload port. Unlock returns a
// response to the CPU (the block-completion acknowledgement that orders
// later bitmask reads); all other instructions — including Lock, since a
// single-host system needs no grant message — are posted: the done
// callback fires as soon as the instruction has left the core, which is
// what lets the processor stream whole lock blocks back to back while
// the engine's in-order queue serialises their execution. The
// instruction is copied into the engine's Submit context, which it
// executes from, so the caller's copy is free once Submit returns.
func (e *Engine) Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool {
	if inst.Target != e.cfg.Target {
		panic(fmt.Sprintf("core %s: wrong target %s", e.cfg.Name, inst.Target))
	}
	if err := inst.Validate(); err != nil {
		panic("core: invalid instruction: " + err.Error())
	}
	acked := inst.Op == isa.Unlock
	op := e.getSub()
	op.inst = *inst
	op.acked = acked
	op.pkt = link.Packet{
		Vault:       e.cfg.InstructionVault,
		ReqPayload:  0, // one 16 B instruction packet
		RespPayload: 0, // lock/unlock acks are header-only
		Execute:     op.execFn,
	}
	if acked {
		op.done = done
		op.pkt.Done = op.deliverFn
	}
	e.links.Send(&op.pkt)
	if !acked && done != nil {
		// Posted: the CPU retires the µop once the packet is on its way.
		e.engine.AfterCall(1, done)
	}
	return true
}

// Tick implements sim.Ticker: one engine cycle of in-order issue. A
// predicated instruction costs extra issue slots (the predication match
// logic's flag read). A tick that neither issues nor flushes the mask
// buffer stalls on its queue head, which only a completion unblocks.
func (e *Engine) Tick(now sim.Cycle) sim.TickResult {
	e.stalls.interlock, e.stalls.pred = 0, 0
	flushes := e.maskBufFlushes.Value()
	issued := 0
	for issued < e.cfg.Width {
		if e.queue.Len() == 0 {
			break
		}
		head := *e.queue.Front()
		cost := 1
		if head.inst.Pred.Valid {
			cost += e.cfg.PredExtraSlots
		}
		if issued+cost > e.cfg.Width && issued > 0 {
			break // does not fit in this cycle's remaining slots
		}
		if !e.canIssue(&head.inst, now) {
			break
		}
		e.queue.Pop()
		e.issue(head, now)
		issued += cost
	}
	e.Credit(1) // this tick's own stalls
	switch {
	case e.queue.Len() == 0:
		return sim.Idle
	case issued > 0 || e.maskBufFlushes.Value() != flushes:
		return sim.Busy
	}
	return sim.Stalled
}

// Deadline implements sim.Ticker: a stalled sequencer waits only on
// completions.
func (e *Engine) Deadline(sim.Cycle) sim.Cycle { return sim.NoDeadline }

// Credit implements sim.Ticker: it adds n times this tick's interlock
// and predicate stalls.
func (e *Engine) Credit(n uint64) {
	e.interlockStall.Add(n * e.stalls.interlock)
	e.predStall.Add(n * e.stalls.pred)
}

// canIssue applies the interlock and predication-readiness rules.
func (e *Engine) canIssue(inst *isa.OffloadInst, now sim.Cycle) bool {
	if inst.Pred.Valid && e.regs[inst.Pred.Reg].pending {
		// Predication match logic needs the flag: data dependency.
		e.stalls.pred++
		return false
	}
	switch inst.Op {
	case isa.Lock:
		return true
	case isa.Unlock:
		// Unlock drains the block: every register write completed, the
		// mask buffer flushed, and every store accepted by DRAM.
		if e.maskBuf.dirty {
			e.flushMaskBuf()
			e.stalls.interlock++
			return false
		}
		if e.outstandingStores > 0 {
			e.stalls.interlock++
			return false
		}
		for i := range e.regs {
			if e.regs[i].pending {
				e.stalls.interlock++
				return false
			}
		}
		return true
	case isa.VLoad, isa.VMaskLoad:
		if e.regs[inst.Dst].pending {
			e.stalls.interlock++
			return false
		}
		return true
	case isa.VStore, isa.VMaskStore:
		if e.regs[inst.Src1].pending {
			e.stalls.interlock++
			return false
		}
		return true
	case isa.VALU:
		if e.regs[inst.Dst].pending || e.regs[inst.Src1].pending ||
			(!inst.UseImm && e.regs[inst.Src2].pending) {
			e.stalls.interlock++
			return false
		}
		return true
	default:
		panic(fmt.Sprintf("core: cannot issue %s", inst.Op))
	}
}

// issue executes one instruction (or squashes it under predication).
// Completing the op releases it, so every read of the instruction
// comes first.
func (e *Engine) issue(q *subOp, now sim.Cycle) {
	inst := &q.inst
	e.instructions.Inc()

	if inst.Pred.Valid {
		flag := e.regs[inst.Pred.Reg].zero
		if flag != inst.Pred.WhenZero {
			// Predicate mismatch: squash. One sequencer slot consumed,
			// no DRAM traffic, no FU occupancy.
			e.squashed.Inc()
			switch inst.Op {
			case isa.VLoad, isa.VMaskLoad:
				e.squashedLoads.Inc()
				if inst.Op == isa.VLoad {
					e.squashedBytes.Add(uint64(inst.Size))
				} else {
					e.squashedBytes.Add(uint64(isa.MaskBytes(inst.Size)))
				}
			}
			if e.cfg.ZeroingSquash {
				switch inst.Op {
				case isa.VLoad, isa.VMaskLoad, isa.VALU:
					dst := &e.regs[inst.Dst]
					dst.data = [isa.RegisterBytes]byte{}
					dst.zero = true
				}
			}
			q.complete()
			return
		}
	}

	switch inst.Op {
	case isa.Lock:
		e.locked = true
		e.lockBlocks.Inc()
		q.complete()

	case isa.Unlock:
		e.locked = false
		q.complete()

	case isa.VLoad:
		e.loads.Inc()
		e.dramReadBytes.Add(uint64(inst.Size))
		dst := &e.regs[inst.Dst]
		dst.pending = true
		op := e.getLd()
		op.dst, op.addr, op.size = dst, inst.Addr, inst.Size
		e.fanOut(inst.Addr, inst.Size, mem.Read, op.fn)
		q.complete()

	case isa.VMaskLoad:
		e.loads.Inc()
		nb := isa.MaskBytes(inst.Size)
		dst := &e.regs[inst.Dst]
		dst.pending = true
		op := e.getMl()
		op.dst, op.addr, op.nb, op.size = dst, inst.Addr, nb, inst.Size
		row := e.geom.RowBase(inst.Addr)
		switch {
		case e.maskBuf.valid && e.maskBuf.row == row:
			// Forwarded from the write-combine buffer: no DRAM access.
			e.maskBufHits.Inc()
			e.engine.ScheduleCall(now+e.cfg.ClockDivider, op.fn)
		case e.maskRead != nil && e.maskRead.row == row:
			e.maskBufHits.Inc()
			f := e.maskRead
			if !f.done {
				// The row fetch is still in flight: coalesce onto it.
				f.waiting = append(f.waiting, op.fn)
				break
			}
			at := now + e.cfg.ClockDivider
			if f.doneAt > at {
				at = f.doneAt
			}
			e.engine.ScheduleCall(at, op.fn)
		default:
			// Miss: fetch the whole row once into the logic layer.
			e.maskBufMisses.Inc()
			e.dramReadBytes.Add(uint64(e.geom.RowBytes))
			if old := e.maskRead; old != nil && old.done {
				// The superseded fetch has completed its waiters; it
				// becomes reusable the moment it loses currency.
				e.rfFree = append(e.rfFree, old)
			}
			f := e.getRowFetch(row)
			f.waiting = append(f.waiting, op.fn)
			e.maskRead = f
			e.fanOut(row, e.geom.RowBytes, mem.Read, f.doneFn)
		}
		q.complete()

	case isa.VStore:
		e.stores.Inc()
		e.dramWriteBytes.Add(uint64(inst.Size))
		src := &e.regs[inst.Src1]
		copy(e.image[inst.Addr:uint64(inst.Addr)+uint64(inst.Size)], src.data[:inst.Size])
		e.outstandingStores++
		e.fanOut(inst.Addr, inst.Size, mem.Write, e.storeDrainedFn)
		q.complete()

	case isa.VMaskStore:
		e.stores.Inc()
		src := &e.regs[inst.Src1]
		nb := isa.MaskBytes(inst.Size)
		mask := e.maskScratch[:nb]
		isa.CompactMask(mask, src.data[:], int(inst.Size))
		copy(e.image[inst.Addr:uint64(inst.Addr)+uint64(nb)], mask)
		if inst.Check && e.checker != nil {
			e.checker.Check(inst, mask)
		}
		// Accumulate in the mask write-combine buffer; the row flushes
		// to DRAM when the target row changes or at unlock.
		row := e.geom.RowBase(inst.Addr)
		if e.maskBuf.valid && e.maskBuf.row != row && e.maskBuf.dirty {
			e.flushMaskBuf()
		}
		e.maskBuf.valid = true
		e.maskBuf.row = row
		e.maskBuf.dirty = true
		q.complete()

	case isa.VALU:
		e.aluOps.Inc()
		dst := &e.regs[inst.Dst]
		src1 := &e.regs[inst.Src1]
		n := int(isa.RegisterBytes)
		op := e.getAlu()
		if inst.UseImm {
			isa.LaneOpImm(inst.ALU, op.buf[:], src1.data[:], inst.Imm, n)
		} else {
			isa.LaneOp(inst.ALU, op.buf[:], src1.data[:], e.regs[inst.Src2].data[:], n)
		}
		dst.pending = true
		op.dst = dst
		e.engine.ScheduleEvent(now+e.aluLatency(inst), op, 0)
		q.complete()

	default:
		panic(fmt.Sprintf("core: cannot execute %s", inst.Op))
	}
}

// aluLatency maps an ALU kind to its Table I latency.
func (e *Engine) aluLatency(inst *isa.OffloadInst) sim.Cycle {
	if inst.FP {
		switch inst.ALU {
		case isa.Mul:
			return e.cfg.FPMulLatency
		default:
			return e.cfg.FPALULatency
		}
	}
	switch inst.ALU {
	case isa.Mul:
		return e.cfg.IntMulLatency
	default:
		return e.cfg.IntALULatency
	}
}

// flushMaskBuf writes the mask buffer's row to DRAM as one row-sized
// store.
func (e *Engine) flushMaskBuf() {
	e.maskBufFlushes.Inc()
	e.maskBuf.dirty = false
	e.dramWriteBytes.Add(uint64(e.geom.RowBytes))
	e.outstandingStores++
	e.fanOut(e.maskBuf.row, e.geom.RowBytes, mem.Write, e.storeDrainedFn)
}

// fanOut issues the DRAM accesses for a (possibly row-straddling) engine
// memory operation and invokes done when all complete. The row walk is
// inlined (no chunk slice) and every chunk reuses the fan-out's one
// request struct: the vault consumes a request synchronously, retaining
// only its Done callback.
func (e *Engine) fanOut(addr mem.Addr, size uint32, kind mem.Kind, done func(now sim.Cycle)) {
	rowBytes := mem.Addr(e.geom.RowBytes)
	// First walk: count the row-contained chunks.
	n := 0
	for a, s := addr, size; s > 0; {
		c := uint32(e.geom.RowBase(a) + rowBytes - a)
		if c > s {
			c = s
		}
		n++
		a += mem.Addr(c)
		s -= c
	}
	op := e.getFan()
	op.remaining = n
	op.done = done
	// Second walk: issue the accesses.
	for a, s := addr, size; s > 0; {
		c := uint32(e.geom.RowBase(a) + rowBytes - a)
		if c > s {
			c = s
		}
		op.req = mem.Request{Addr: a, Size: c, Kind: kind, Done: op.chunkFn}
		e.vaults.Access(&op.req)
		a += mem.Addr(c)
		s -= c
	}
}

// Reset returns the engine to its post-New state: registers zeroed
// (with zero flags set, as on a fresh bank), queue empty, no lock held,
// mask buffers invalidated, clock domain never ticked. Counters are
// zeroed by the registry reset the machine performs alongside.
func (e *Engine) Reset() {
	for i := range e.regs {
		e.regs[i] = register{zero: true}
	}
	e.queue.Reset()
	e.locked = false
	e.outstandingStores = 0
	e.maskBuf.valid, e.maskBuf.dirty, e.maskBuf.row = false, false, 0
	if e.maskRead != nil {
		// Nothing can complete the read buffer's fetch any more: its
		// DRAM read went with the event queue.
		e.rfFree = append(e.rfFree, e.maskRead)
		e.maskRead = nil
	}
	e.domain.Reset()
}

// Locked reports whether a lock block is open (for tests).
func (e *Engine) Locked() bool { return e.locked }

// ZeroingSquash reports whether squashed predicated instructions zero
// their destination register (Config.ZeroingSquash). Plans that
// accumulate through predicated temporaries are only correct under
// zeroing-mask semantics and check this before compiling.
func (e *Engine) ZeroingSquash() bool { return e.cfg.ZeroingSquash }

// RegisterData returns a copy of a register's contents (for tests).
func (e *Engine) RegisterData(i int) []byte {
	out := make([]byte, isa.RegisterBytes)
	copy(out, e.regs[i].data[:])
	return out
}

// RegisterZero reports a register's zero flag (for tests).
func (e *Engine) RegisterZero(i int) bool { return e.regs[i].zero }

// RegisterPending reports whether a register is interlocked (for tests).
func (e *Engine) RegisterPending(i int) bool { return e.regs[i].pending }

// QueueDepth reports buffered instructions (for tests).
func (e *Engine) QueueDepth() int { return e.queue.Len() }
