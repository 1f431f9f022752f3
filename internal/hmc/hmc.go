// Package hmc implements the HMC baseline's logic-layer execution: the
// HMC 2.1 update instructions (extended per the paper with operand sizes
// from 16 B up to 256 B and a load-compare instruction) executed by one
// functional unit per vault, plus the host-side controller that sends
// instruction packets over the SerDes links and bounds the number of
// in-flight instructions.
//
// Instructions execute functionally against the backing image so tests
// can verify the computed bitmasks and in-place updates.
package hmc

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/dram"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/link"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Config parameterises the HMC instruction path.
type Config struct {
	// FULatency is the per-vault functional-unit latency in CPU cycles
	// (Table I: 1 cycle, logical bitwise & integer units).
	FULatency sim.Cycle
	// MaxInFlight bounds host-side outstanding HMC instructions — the
	// memory controller's atomic-request window. This is the knob that
	// controls how much vault parallelism one core can extract from
	// HMC-ISA offload.
	MaxInFlight int
	// RequestBytes is the instruction packet payload (operand pattern /
	// immediate). The HMC spec's 16-byte request is the paper's "small
	// HMC instruction size" limitation.
	RequestBytes uint32
}

// Default returns the paper's HMC baseline parameters.
func Default() Config {
	return Config{FULatency: 1, MaxInFlight: 16, RequestBytes: 16}
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.FULatency == 0 || c.MaxInFlight <= 0 {
		return fmt.Errorf("hmc: bad config %+v", c)
	}
	return nil
}

// Engine is the HMC baseline offload path. It satisfies the processor's
// OffloadPort interface.
type Engine struct {
	cfg    Config
	engine *sim.Engine
	links  *link.Controller
	vaults *dram.HMC
	geom   mem.Geometry
	image  []byte

	inFlight int
	opFree   []*hmcOp
	checker  isa.Checker

	// Scratch for apply's lane expansion and mask compaction. Valid
	// only within one apply call; the checker compares and discards it.
	laneScratch [isa.RegisterBytes]byte
	maskScratch [isa.RegisterBytes / 8]byte

	executed  *stats.Counter
	cmpReads  *stats.Counter
	updates   *stats.Counter
	rejected  *stats.Counter
	maskBytes *stats.Counter
}

// hmcOp is one pooled in-flight instruction: the engine's own copy of
// the instruction, the link packet, the vault request it becomes inside
// the cube, and the pre-bound callbacks for every hop. Submit draws one;
// the response delivery releases it.
type hmcOp struct {
	e    *Engine
	inst isa.OffloadInst
	done func(now sim.Cycle)
	pkt  link.Packet
	req  mem.Request

	execFn      func(p *link.Packet)
	readDoneFn  func(now sim.Cycle)
	writeDoneFn func(now sim.Cycle)
	deliverFn   func(now sim.Cycle)

	// wb records apply's write-back decision between the DRAM read
	// completing (where the functional effect happens, exactly as
	// before the refactor) and the FU latency elapsing.
	wb bool
}

// OnEvent implements sim.Handler: the functional-unit latency elapsed;
// write back if needed, else complete toward the response link.
func (op *hmcOp) OnEvent(now sim.Cycle, _ uint64) {
	e := op.e
	e.executed.Inc()
	if !op.wb {
		op.pkt.Complete()
		return
	}
	op.req = mem.Request{Addr: op.inst.Addr, Size: sizeOf(&op.inst), Kind: mem.Write, Done: op.writeDoneFn}
	e.vaults.Access(&op.req)
}

// New builds the baseline engine over the given DRAM and link models.
// image is the functional backing store (its length bounds the usable
// physical address space).
func New(engine *sim.Engine, cfg Config, links *link.Controller, vaults *dram.HMC, image []byte, reg *stats.Registry) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := reg.Scope("hmc")
	return &Engine{
		cfg:       cfg,
		engine:    engine,
		links:     links,
		vaults:    vaults,
		geom:      vaults.Geom,
		image:     image,
		executed:  sc.Counter("instructions"),
		cmpReads:  sc.Counter("cmp_reads"),
		updates:   sc.Counter("updates"),
		rejected:  sc.Counter("window_rejects"),
		maskBytes: sc.Counter("mask_bytes_returned"),
	}, nil
}

// getOp draws a pooled instruction context.
func (e *Engine) getOp() *hmcOp {
	if n := len(e.opFree); n > 0 {
		op := e.opFree[n-1]
		e.opFree = e.opFree[:n-1]
		return op
	}
	op := &hmcOp{e: e}
	op.execFn = op.exec
	op.readDoneFn = op.readDone
	op.writeDoneFn = func(sim.Cycle) { op.pkt.Complete() }
	op.deliverFn = op.deliver
	return op
}

// SetChecker installs the checker that receives the results of checked
// instructions (nil: results go unreported).
func (e *Engine) SetChecker(c isa.Checker) { e.checker = c }

// Submit implements the processor offload port for TargetHMC
// instructions. It reports false when the in-flight window is full.
// An accepted instruction is copied into the engine's in-flight op, so
// the caller's copy is free once Submit returns.
func (e *Engine) Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool {
	if inst.Target != isa.TargetHMC {
		panic(fmt.Sprintf("hmc: wrong target %s", inst.Target))
	}
	if err := inst.Validate(); err != nil {
		panic("hmc: invalid instruction: " + err.Error())
	}
	if e.inFlight >= e.cfg.MaxInFlight {
		e.rejected.Inc()
		return false
	}
	e.inFlight++

	loc := e.geom.Decompose(inst.Addr)
	respPayload := uint32(0)
	if inst.Op == isa.CmpRead {
		respPayload = isa.MaskBytes(inst.Size)
	}
	op := e.getOp()
	op.inst = *inst
	op.done = done
	op.pkt = link.Packet{
		Vault:       loc.Vault,
		ReqPayload:  e.cfg.RequestBytes,
		RespPayload: respPayload,
		Execute:     op.execFn,
		Done:        op.deliverFn,
	}
	e.links.Send(&op.pkt)
	return true
}

// CreditRefusals counts n Submit calls the full window would have
// refused, for a stalled core's skipped ticks.
func (e *Engine) CreditRefusals(n uint64) { e.rejected.Add(n) }

// exec runs cube-side on instruction arrival: issue the DRAM read.
func (op *hmcOp) exec(*link.Packet) {
	op.req = mem.Request{Addr: op.inst.Addr, Size: sizeOf(&op.inst), Kind: mem.Read, Done: op.readDoneFn}
	op.e.vaults.Access(&op.req)
}

// readDone fires when the operand read completes: the functional effect
// applies here (visible to anything that reads the image afterwards),
// then the FU latency elapses before write-back / response.
func (op *hmcOp) readDone(now sim.Cycle) {
	op.wb = op.e.apply(&op.inst)
	op.e.engine.ScheduleEvent(now+op.e.cfg.FULatency, op, 0)
}

// deliver fires on the requester side: release the window slot and the
// op, then complete toward the core.
func (op *hmcOp) deliver(now sim.Cycle) {
	e := op.e
	done := op.done
	op.inst, op.done = isa.OffloadInst{}, nil
	e.opFree = append(e.opFree, op)
	e.inFlight--
	done(now)
}

// apply performs the functional effect; it reports whether the
// instruction writes DRAM back. A checked instruction's result goes to
// the checker from the engine's scratch buffer.
func (e *Engine) apply(inst *isa.OffloadInst) bool {
	data := e.image[inst.Addr : uint64(inst.Addr)+uint64(sizeOf(inst))]
	switch inst.Op {
	case isa.CmpRead:
		e.cmpReads.Inc()
		lanes := e.laneScratch[:inst.Size]
		if len(inst.Pattern) > 0 {
			isa.LaneOpPattern(inst.ALU, lanes, data, inst.Pattern, int(inst.Size))
		} else {
			isa.LaneOpImm(inst.ALU, lanes, data, inst.Imm, int(inst.Size))
		}
		mask := e.maskScratch[:isa.MaskBytes(inst.Size)]
		isa.CompactMask(mask, lanes, int(inst.Size))
		e.maskBytes.Add(uint64(len(mask)))
		if inst.Check && e.checker != nil {
			e.checker.Check(inst, mask)
		}
		return false
	case isa.AddImm:
		e.updates.Inc()
		isa.LaneOpImm(isa.Add, data, data, inst.Imm, int(inst.Size))
		return true
	case isa.CompareSwap:
		e.updates.Inc()
		old := isa.LaneAt(data, 0)
		swapped := old == inst.Imm
		if swapped {
			isa.SetLane(data, 0, inst.Imm2)
		}
		if inst.Check && e.checker != nil {
			res := e.laneScratch[:isa.LaneBytes]
			isa.SetLane(res, 0, old)
			e.checker.Check(inst, res)
		}
		return swapped
	default:
		panic(fmt.Sprintf("hmc: cannot execute %s", inst.Op))
	}
}

func sizeOf(inst *isa.OffloadInst) uint32 {
	if inst.Op == isa.CompareSwap {
		return isa.LaneBytes
	}
	return inst.Size
}

// Reset clears the in-flight window. Abandoned ops go with the engine's
// event queue; counters are zeroed by the registry reset the machine
// performs alongside.
func (e *Engine) Reset() { e.inFlight = 0 }

// InFlight reports the current window occupancy (for tests).
func (e *Engine) InFlight() int { return e.inFlight }
