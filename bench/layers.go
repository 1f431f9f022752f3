package main

import (
	"fmt"
	"time"

	"github.com/hipe-sim/hipe/internal/cache"
	"github.com/hipe-sim/hipe/internal/core"
	"github.com/hipe-sim/hipe/internal/cpu"
	"github.com/hipe-sim/hipe/internal/dram"
	"github.com/hipe-sim/hipe/internal/hmc"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/link"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// A layer driver feeds one layer's public API a fixed, deterministic
// input and reports host nanoseconds per unit of work. build constructs
// the layer once, untimed, and returns a batch function that resets it,
// runs the input and returns the units completed; the driver repeats
// batches until its time is up.
type layerDriver struct {
	name  string
	build func() (func() uint64, error)
}

var layerDrivers = []layerDriver{
	{"sim.ns_per_event", buildSim},
	{"cpu.ns_per_cycle.stalled", buildCPUStalled},
	{"cpu.ns_per_uop.alu", buildCPUALU},
	{"cache.ns_per_access", buildCache},
	{"dram.ns_per_access", buildDRAM},
	{"link.ns_per_packet", buildLink},
	{"hmc.ns_per_inst", buildHMC},
	{"core.ns_per_inst", buildHIPE},
}

// runDriver repeats d's batches for at least budget and returns the
// host nanoseconds per unit.
func runDriver(d layerDriver, budget time.Duration) (float64, error) {
	batch, err := d.build()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", d.name, err)
	}
	var units uint64
	start := time.Now()
	for units == 0 || time.Since(start) < budget {
		units += batch()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units), nil
}

// chain is a self-rescheduling event: each firing schedules the next
// after a pseudo-random delay of 1..300 cycles, so both the
// near-future ring and the far-future heap see traffic.
type chain struct {
	e    *sim.Engine
	left int
}

func (c *chain) OnEvent(now sim.Cycle, tag uint64) {
	if c.left == 0 {
		return
	}
	c.left--
	next := tag*6364136223846793005 + 1442695040888963407
	c.e.ScheduleEvent(now+1+sim.Cycle(next>>32%300), c, next)
}

// buildSim drives the event scheduler alone: 64 interleaved chains.
func buildSim() (func() uint64, error) {
	e := sim.NewEngine()
	chains := make([]chain, 64)
	return func() uint64 {
		e.Reset()
		for i := range chains {
			chains[i] = chain{e: e, left: 4096}
			e.ScheduleEvent(sim.Cycle(i), &chains[i], uint64(i))
		}
		e.Run()
		return e.Executed()
	}, nil
}

// fixedPort is a memory that completes every access a fixed number of
// cycles after it arrives.
func fixedPort(e *sim.Engine, latency sim.Cycle) mem.Port {
	return mem.FuncPort(func(req *mem.Request) bool {
		if req.Done != nil {
			e.ScheduleCall(e.Now()+latency, req.Done)
		}
		return true
	})
}

// buildCore runs a µop stream on a Table I core over a fixed-latency
// memory; count picks the batch's units from the core's cycles and
// committed µops.
func buildCore(ops []isa.MicroOp, count func(cycles, uops uint64) uint64) (func() uint64, error) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	port := fixedPort(e, 200)
	c, err := cpu.New(e, cpu.TableI("cpu0"), port, port, nil, reg)
	if err != nil {
		return nil, err
	}
	uops := reg.Scope("cpu0")
	return func() uint64 {
		e.Reset()
		reg.Reset()
		c.Reset()
		c.Start(&cpu.SliceStream{Ops: ops}, nil)
		e.Run()
		return count(uint64(c.Cycles()), uops.Get("committed_uops"))
	}, nil
}

// buildCPUStalled runs a chain of dependent 200-cycle loads: the core
// spends almost every cycle stalled, the shape of the tuple-at-a-time
// figure panels. Units are core cycles.
func buildCPUStalled() (func() uint64, error) {
	ops := make([]isa.MicroOp, 512)
	for i := range ops {
		ops[i] = isa.MicroOp{PC: uint64(4 * i), Class: isa.Load, Dst: isa.Reg(i + 1), Src1: isa.Reg(i),
			Addr: mem.Addr(64 * i), Size: 8}
	}
	return buildCore(ops, func(cycles, _ uint64) uint64 { return cycles })
}

// buildCPUALU runs independent integer µops: a busy core, which
// skipping idle cycles must not speed up. Units are committed µops.
func buildCPUALU() (func() uint64, error) {
	ops := make([]isa.MicroOp, 16384)
	for i := range ops {
		ops[i] = isa.MicroOp{PC: uint64(4 * (i % 64)), Class: isa.IntALU, Dst: isa.Reg(i + 1)}
	}
	return buildCore(ops, func(_, uops uint64) uint64 { return uops })
}

// feeder keeps a fixed number of reads in flight against a port: each
// completion issues the next access, and a refused access retries on
// the next cycle.
type feeder struct {
	e      *sim.Engine
	port   mem.Port
	addr   func(i uint64) mem.Addr
	size   uint32
	limit  uint64
	issued uint64
	done   uint64
	reqs   []*mem.Request
}

func newFeeder(e *sim.Engine, port mem.Port, size uint32, limit uint64, inFlight int, addr func(uint64) mem.Addr) *feeder {
	f := &feeder{e: e, port: port, addr: addr, size: size, limit: limit}
	for i := 0; i < inFlight; i++ {
		req := &mem.Request{}
		req.Done = func(sim.Cycle) {
			f.done++
			f.issue(req)
		}
		f.reqs = append(f.reqs, req)
	}
	return f
}

func (f *feeder) issue(req *mem.Request) {
	if f.issued == f.limit {
		return
	}
	req.Addr, req.Size, req.Kind = f.addr(f.issued), f.size, mem.Read
	if !f.port.Access(req) {
		f.e.ScheduleCall(f.e.Now()+1, func(sim.Cycle) { f.issue(req) })
		return
	}
	f.issued++
}

// run issues the batch on a reset layer and returns the completions.
func (f *feeder) run() uint64 {
	f.issued, f.done = 0, 0
	for _, req := range f.reqs {
		f.issue(req)
	}
	f.e.Run()
	return f.done
}

// buildCache reads 64-byte lines at pseudo-random addresses of a 1 MiB
// region through the Table I hierarchy: L1 and L2 miss often, L3 hits.
func buildCache() (func() uint64, error) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	h, err := cache.NewHierarchy(e, cache.TableIL1(), cache.TableIL2(), cache.TableIL3(), fixedPort(e, 100), reg)
	if err != nil {
		return nil, err
	}
	f := newFeeder(e, h.L1, 64, 16384, 8, func(i uint64) mem.Addr { return mem.Addr((i * 2654435761 % 16384) * 64) })
	return func() uint64 {
		e.Reset()
		reg.Reset()
		h.Reset()
		return f.run()
	}, nil
}

// buildDRAM streams 256-byte row reads across the 32 vaults.
func buildDRAM() (func() uint64, error) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	d, err := dram.New(e, mem.HMC21(), dram.HMC21Timing(), reg)
	if err != nil {
		return nil, err
	}
	f := newFeeder(e, d, 256, 8192, 64, func(i uint64) mem.Addr { return mem.Addr(i * 256) })
	return func() uint64 {
		e.Reset()
		reg.Reset()
		d.Reset()
		return f.run()
	}, nil
}

// buildLink sends read packets whose cube side completes at once, 16
// in flight, across every vault's link.
func buildLink() (func() uint64, error) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	l, err := link.New(e, link.Default(), 32, reg)
	if err != nil {
		return nil, err
	}
	const limit = 16384
	var sent, done uint64
	send := func(p *link.Packet) {
		if sent < limit {
			p.Vault = uint32(sent % 32)
			sent++
			l.Send(p)
		}
	}
	pkts := make([]*link.Packet, 16)
	for i := range pkts {
		p := &link.Packet{RespPayload: 64, Execute: func(p *link.Packet) { p.Complete() }}
		p.Done = func(sim.Cycle) {
			done++
			send(p)
		}
		pkts[i] = p
	}
	return func() uint64 {
		e.Reset()
		reg.Reset()
		l.Reset()
		sent, done = 0, 0
		for _, p := range pkts {
			send(p)
		}
		e.Run()
		return done
	}, nil
}

// engineRig is the logic-layer substrate the offload engines share.
type engineRig struct {
	e     *sim.Engine
	reg   *stats.Registry
	d     *dram.HMC
	l     *link.Controller
	image []byte
}

func newRig() (*engineRig, error) {
	r := &engineRig{e: sim.NewEngine(), reg: stats.NewRegistry(), image: make([]byte, 1<<20)}
	var err error
	if r.d, err = dram.New(r.e, mem.HMC21(), dram.HMC21Timing(), r.reg); err != nil {
		return nil, err
	}
	r.l, err = link.New(r.e, link.Default(), 32, r.reg)
	return r, err
}

func (r *engineRig) reset() {
	r.e.Reset()
	r.reg.Reset()
	r.d.Reset()
	r.l.Reset()
}

// buildHMC issues 256-byte HMC compare-reads across the vaults, as many
// in flight as the host window admits.
func buildHMC() (func() uint64, error) {
	r, err := newRig()
	if err != nil {
		return nil, err
	}
	eng, err := hmc.New(r.e, hmc.Default(), r.l, r.d, r.image, r.reg)
	if err != nil {
		return nil, err
	}
	insts := make([]isa.OffloadInst, 4096)
	for i := range insts {
		insts[i] = isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLT,
			Addr: mem.Addr(i * 256 % len(r.image)), Size: 256, Imm: 24}
	}
	var next, done int
	var submit func()
	onDone := func(sim.Cycle) {
		done++
		submit()
	}
	submit = func() {
		for next < len(insts) && eng.Submit(&insts[next], onDone) {
			next++
		}
	}
	return func() uint64 {
		r.reset()
		eng.Reset()
		next, done = 0, 0
		submit()
		r.e.Run()
		return uint64(done)
	}, nil
}

// buildHIPE streams HIPE's predicated scan kernel — load a column
// chunk, compare, predicated load of the next column, predicated AND,
// store the mask — in lock blocks of 8 chunks, two blocks in flight.
func buildHIPE() (func() uint64, error) {
	r, err := newRig()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(r.e, core.DefaultHIPE(), r.l, r.d, r.image, r.reg)
	if err != nil {
		return nil, err
	}
	const blocks, chunks = 64, 8
	half := len(r.image) / 2
	var insts []isa.OffloadInst
	add := func(in isa.OffloadInst) {
		in.Target = isa.TargetHIPE
		insts = append(insts, in)
	}
	pred := isa.Predicate{Valid: true, Reg: 2}
	for b := 0; b < blocks; b++ {
		add(isa.OffloadInst{Op: isa.Lock})
		for c := 0; c < chunks; c++ {
			base := mem.Addr((b*chunks + c) * 256 % half)
			add(isa.OffloadInst{Op: isa.VLoad, Dst: 1, Addr: base, Size: 256})
			add(isa.OffloadInst{Op: isa.VALU, ALU: isa.CmpLT, Dst: 2, Src1: 1, UseImm: true, Imm: 24})
			add(isa.OffloadInst{Op: isa.VLoad, Dst: 3, Addr: base + mem.Addr(half), Size: 256, Pred: pred})
			add(isa.OffloadInst{Op: isa.VALU, ALU: isa.And, Dst: 4, Src1: 3, Src2: 2, Pred: pred})
			add(isa.OffloadInst{Op: isa.VStore, Src1: 4, Addr: base, Size: 256, Pred: pred})
		}
		add(isa.OffloadInst{Op: isa.Unlock})
	}
	perBlock := len(insts) / blocks
	var submitted, acked int
	var submitBlock func()
	posted := func(sim.Cycle) {}
	unlocked := func(sim.Cycle) {
		acked++
		submitBlock()
	}
	submitBlock = func() {
		if submitted == blocks {
			return
		}
		block := insts[submitted*perBlock : (submitted+1)*perBlock]
		submitted++
		for i := range block {
			done := posted
			if block[i].Op == isa.Unlock {
				done = unlocked
			}
			eng.Submit(&block[i], done)
		}
	}
	return func() uint64 {
		r.reset()
		eng.Reset()
		// Every third lane of the first column matches, so the
		// predicated half of the kernel both runs and squashes.
		clear(r.image)
		for i := 0; i < half/4; i++ {
			isa.SetLane(r.image, i, int32(i%50))
		}
		submitted, acked = 0, 0
		submitBlock()
		submitBlock()
		r.e.Run()
		return uint64(acked * perBlock)
	}, nil
}
