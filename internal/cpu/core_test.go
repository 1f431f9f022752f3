package cpu

import (
	"reflect"
	"testing"

	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// testMem is a constant-latency memory port.
type testMem struct {
	engine  *sim.Engine
	latency sim.Cycle
	reads   int
	writes  int
	maxOut  int
	out     int
}

func (m *testMem) Access(req *mem.Request) bool {
	if req.Kind == mem.Read {
		m.reads++
	} else {
		m.writes++
	}
	m.out++
	if m.out > m.maxOut {
		m.maxOut = m.out
	}
	if req.Done != nil {
		done := m.engine.Now() + m.latency
		d := req.Done
		m.engine.Schedule(done, func() {
			m.out--
			d(done)
		})
	} else {
		m.out--
	}
	return true
}

// testOffload is a constant-latency offload port.
type testOffload struct {
	engine  *sim.Engine
	latency sim.Cycle
	insts   []isa.OffloadInst // copies of the submitted instructions
}

func (o *testOffload) Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool {
	o.insts = append(o.insts, *inst)
	at := o.engine.Now() + o.latency
	o.engine.Schedule(at, func() { done(at) })
	return true
}

// refusingOffload refuses every instruction for one target and passes
// the rest to a constant-latency port, counting Submit calls by target
// and the refusals credited to it.
type refusingOffload struct {
	testOffload
	refuse   isa.Target
	calls    [3]int
	credited uint64
}

func (o *refusingOffload) Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool {
	o.calls[inst.Target]++
	if inst.Target == o.refuse {
		return false
	}
	return o.testOffload.Submit(inst, done)
}

func (o *refusingOffload) CreditRefusals(n uint64) { o.credited += n }

func newCore(t *testing.T, memLat sim.Cycle) (*sim.Engine, *Core, *testMem, *testOffload, *stats.Registry) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	tm := &testMem{engine: e, latency: memLat}
	to := &testOffload{engine: e, latency: 50}
	c, err := New(e, TableI("cpu0"), tm, tm, to, reg)
	if err != nil {
		t.Fatal(err)
	}
	return e, c, tm, to, reg
}

func run(t *testing.T, e *sim.Engine, c *Core, ops []isa.MicroOp) sim.Cycle {
	t.Helper()
	finished := false
	c.Start(&SliceStream{Ops: ops}, func() { finished = true })
	e.Run()
	if !finished {
		t.Fatal("core never finished")
	}
	return c.Cycles()
}

func TestConfigValidation(t *testing.T) {
	if err := TableI("x").Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TableI("x")
	bad.ROBSize = 0
	if bad.Validate() == nil {
		t.Fatal("zero ROB accepted")
	}
	bad = TableI("x")
	bad.FUs[FUIntALU].Units = 0
	if bad.Validate() == nil {
		t.Fatal("zero FU accepted")
	}
	bad = TableI("x")
	bad.GHRBits = 0
	if bad.Validate() == nil {
		t.Fatal("bad predictor accepted")
	}
	e := sim.NewEngine()
	if _, err := New(e, bad, nil, nil, nil, stats.NewRegistry()); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestIndependentALUOpsSuperscalar(t *testing.T) {
	e, c, _, _, _ := newCore(t, 10)
	// 30 independent int ALU ops on a 3-ALU, 6-wide machine, 4 µops/cycle
	// fetch → bound by fetch (4/cyc) and ALUs (3/cyc): ~10+pipe cycles.
	var ops []isa.MicroOp
	for i := 0; i < 30; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.IntALU, Dst: isa.Reg(i + 1)})
	}
	cycles := run(t, e, c, ops)
	if cycles > 20 {
		t.Fatalf("30 independent ALU ops took %d cycles", cycles)
	}
	if c.Committed() != 30 {
		t.Fatalf("committed %d", c.Committed())
	}
}

// fpChain returns a depth-deep chain of 3-cycle FP ops on registers
// base+1 .. base+depth, each reading its predecessor's register (the
// first reads base, which nothing writes).
func fpChain(base isa.Reg, depth int) []isa.MicroOp {
	var ops []isa.MicroOp
	for i := 0; i < depth; i++ {
		ops = append(ops, isa.MicroOp{
			PC: uint64(4 * i), Class: isa.FPALU,
			Dst: base + isa.Reg(i+1), Src1: base + isa.Reg(i),
		})
	}
	return ops
}

func TestDependencyChainSerialises(t *testing.T) {
	e, c, _, _, _ := newCore(t, 10)
	// 20-deep chain of 3-cycle FP ops: at least 60 cycles.
	cycles := run(t, e, c, fpChain(0, 20))
	if cycles < 60 {
		t.Fatalf("20-deep 3-cycle chain took only %d cycles", cycles)
	}

	// Two 20-deep chains interleaved pair by pair, the chain that goes
	// first alternating. With the second chain's registers the first's
	// plus renameSlots, link i of both chains shares one rename slot:
	// the second dispatch of each pair displaces the other chain's
	// in-flight producer, and every other source of each chain finds its
	// slot held by the other chain, so those dependencies live only in
	// the overflow map. Both chains must still serialise, with the
	// cycles and counters of the same chains on registers that never
	// share a slot.
	pair := func(base2 isa.Reg) (sim.Cycle, map[string]uint64) {
		e, c, _, _, reg := newCore(t, 10)
		a, b := fpChain(0, 20), fpChain(base2, 20)
		var ops []isa.MicroOp
		for i := range a {
			if i%2 == 0 {
				ops = append(ops, a[i], b[i])
			} else {
				ops = append(ops, b[i], a[i])
			}
		}
		for i := range ops {
			ops[i].PC = uint64(4 * i)
		}
		cycles := run(t, e, c, ops)
		counts := map[string]uint64{}
		sc := reg.Scope("cpu0")
		for _, name := range sc.Counters() {
			counts[name] = sc.Get(name)
		}
		return cycles, counts
	}
	colliding, collidingCounts := pair(renameSlots)
	if colliding < 60 {
		t.Fatalf("two 20-deep chains sharing rename slots took only %d cycles", colliding)
	}
	apart, apartCounts := pair(renameSlots / 2)
	if colliding != apart {
		t.Fatalf("chains sharing rename slots took %d cycles, %d on separate slots", colliding, apart)
	}
	for name, v := range apartCounts {
		if collidingCounts[name] != v {
			t.Errorf("cpu0.%s = %d sharing rename slots, %d on separate slots", name, collidingCounts[name], v)
		}
	}
}

func TestDividerNotPipelined(t *testing.T) {
	e, c, _, _, _ := newCore(t, 10)
	var ops []isa.MicroOp
	for i := 0; i < 4; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.IntDiv, Dst: isa.Reg(i + 1)})
	}
	cycles := run(t, e, c, ops)
	// 4 divides on one non-pipelined 32-cycle divider: >= 128 cycles.
	if cycles < 128 {
		t.Fatalf("4 divides took %d cycles; divider seems pipelined", cycles)
	}
}

func TestLoadLatencyAndMLP(t *testing.T) {
	e, c, tm, _, _ := newCore(t, 200)
	// 8 independent loads: should overlap (MLP), so total ≈ 200 + small.
	var ops []isa.MicroOp
	for i := 0; i < 8; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.Load,
			Dst: isa.Reg(i + 1), Addr: mem.Addr(i * 64), Size: 8})
	}
	cycles := run(t, e, c, ops)
	if cycles > 230 {
		t.Fatalf("8 independent loads took %d cycles; no MLP", cycles)
	}
	if tm.reads != 8 {
		t.Fatalf("reads = %d", tm.reads)
	}
	if tm.maxOut < 8 {
		t.Fatalf("max outstanding = %d, want 8", tm.maxOut)
	}
}

func TestMOBLimitsOutstandingLoads(t *testing.T) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	tm := &testMem{engine: e, latency: 500}
	cfg := TableI("cpu0")
	cfg.MOBReads = 4
	c, err := New(e, cfg, tm, tm, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	var ops []isa.MicroOp
	for i := 0; i < 16; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.Load,
			Dst: isa.Reg(i + 1), Addr: mem.Addr(i * 64), Size: 8})
	}
	finished := false
	c.Start(&SliceStream{Ops: ops}, func() { finished = true })
	e.Run()
	if !finished {
		t.Fatal("never finished")
	}
	if tm.maxOut > 4 {
		t.Fatalf("outstanding loads %d exceeded MOB limit 4", tm.maxOut)
	}
	// 16 loads, 4 at a time, 500 cycles each wave → >= 2000.
	if c.Cycles() < 2000 {
		t.Fatalf("MOB-limited loads took only %d cycles", c.Cycles())
	}
}

func TestStoresDrainAfterCommit(t *testing.T) {
	e, c, tm, _, _ := newCore(t, 30)
	ops := []isa.MicroOp{
		{PC: 0, Class: isa.Store, Addr: 0x100, Size: 8},
		{PC: 4, Class: isa.Store, Addr: 0x140, Size: 8},
	}
	run(t, e, c, ops)
	if tm.writes != 2 {
		t.Fatalf("writes = %d, want 2", tm.writes)
	}
}

func TestUncacheableRouting(t *testing.T) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	cacheMem := &testMem{engine: e, latency: 5}
	directMem := &testMem{engine: e, latency: 5}
	c, err := New(e, TableI("cpu0"), cacheMem, directMem, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	ops := []isa.MicroOp{
		{PC: 0, Class: isa.Load, Dst: 1, Addr: 0, Size: 8},
		{PC: 4, Class: isa.Load, Dst: 2, Addr: 64, Size: 8, Uncacheable: true},
		{PC: 8, Class: isa.Store, Addr: 128, Size: 8, Uncacheable: true},
	}
	finished := false
	c.Start(&SliceStream{Ops: ops}, func() { finished = true })
	e.Run()
	if !finished {
		t.Fatal("never finished")
	}
	if cacheMem.reads != 1 || directMem.reads != 1 || directMem.writes != 1 || cacheMem.writes != 0 {
		t.Fatalf("routing wrong: cache r%d w%d, direct r%d w%d",
			cacheMem.reads, cacheMem.writes, directMem.reads, directMem.writes)
	}
}

func TestOffloadRoundTrip(t *testing.T) {
	e, c, _, to, reg := newCore(t, 10)
	inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLT, Size: 64, Imm: 5}
	ops := []isa.MicroOp{
		{PC: 0, Class: isa.Offload, Dst: 1, Offload: inst},
		// Dependent ALU op must wait for the offload response.
		{PC: 4, Class: isa.IntALU, Dst: 2, Src1: 1},
	}
	cycles := run(t, e, c, ops)
	if len(to.insts) != 1 || !reflect.DeepEqual(to.insts[0], *inst) {
		t.Fatal("offload instruction not submitted")
	}
	if cycles < 50 {
		t.Fatalf("offload round trip took %d cycles, want >= 50", cycles)
	}
	if reg.Scope("cpu0").Get("offload_insts") != 1 {
		t.Fatal("offload counter wrong")
	}
}

func TestOffloadWithoutPortPanics(t *testing.T) {
	e := sim.NewEngine()
	tm := &testMem{engine: e, latency: 5}
	c, err := New(e, TableI("cpu0"), tm, tm, nil, stats.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("offload without port did not panic")
		}
	}()
	c.Start(&SliceStream{Ops: []isa.MicroOp{
		{Class: isa.Offload, Offload: &isa.OffloadInst{}},
	}}, nil)
	e.Run()
}

func TestWellPredictedLoopBranchesAreCheap(t *testing.T) {
	e, c, _, _, reg := newCore(t, 10)
	// A loop branch taken 999 times then not taken: the GAs predictor
	// pays a warmup (one mispredict per fresh GHR value until the global
	// history saturates, ~GHRBits of them) and then predicts perfectly.
	var ops []isa.MicroOp
	for i := 0; i < 1000; i++ {
		ops = append(ops, isa.MicroOp{PC: 0x40, Class: isa.IntALU, Dst: isa.Reg(i + 1)})
		ops = append(ops, isa.MicroOp{PC: 0x44, Class: isa.Branch, Taken: i != 999})
	}
	cycles := run(t, e, c, ops)
	mis := reg.Scope("cpu0").Get("branch_mispredicts")
	if mis > 20 {
		t.Fatalf("loop branch mispredicted %d times over 1000 iterations", mis)
	}
	if cycles > 1800 {
		t.Fatalf("predictable loop took %d cycles", cycles)
	}
}

func TestRandomBranchesArePunished(t *testing.T) {
	e, c, _, _, regGood := newCore(t, 10)
	// Alternating pattern is learnable by a 12-bit GAs.
	var alt []isa.MicroOp
	for i := 0; i < 200; i++ {
		alt = append(alt, isa.MicroOp{PC: 0x80, Class: isa.Branch, Taken: i%2 == 0})
	}
	altCycles := run(t, e, c, alt)

	e2, c2, _, _, regBad := newCore(t, 10)
	// LFSR-ish pseudo-random outcomes defeat the predictor.
	var rnd []isa.MicroOp
	state := uint32(0xACE1)
	for i := 0; i < 200; i++ {
		state = state*1664525 + 1013904223
		rnd = append(rnd, isa.MicroOp{PC: 0x80, Class: isa.Branch, Taken: state&0x10000 != 0})
	}
	rndCycles := run(t, e2, c2, rnd)

	altMis := regGood.Scope("cpu0").Get("branch_mispredicts")
	rndMis := regBad.Scope("cpu0").Get("branch_mispredicts")
	if rndMis <= altMis*2 {
		t.Fatalf("random branches mispredicted %d, alternating %d", rndMis, altMis)
	}
	if rndCycles <= altCycles {
		t.Fatalf("random branches (%d cyc) not slower than alternating (%d cyc)", rndCycles, altCycles)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	e, c, _, _, reg := newCore(t, 10)
	// One branch guaranteed mispredicted (predictor initialised weakly
	// not-taken; branch is taken) followed by independent work.
	ops := []isa.MicroOp{
		{PC: 0x10, Class: isa.Branch, Taken: true},
	}
	for i := 0; i < 12; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(0x20 + 4*i), Class: isa.IntALU, Dst: isa.Reg(i + 1)})
	}
	cycles := run(t, e, c, ops)
	if reg.Scope("cpu0").Get("branch_mispredicts") != 1 {
		t.Fatalf("mispredicts = %d, want 1", reg.Scope("cpu0").Get("branch_mispredicts"))
	}
	// Mispredict penalty (14) must appear in the runtime.
	if cycles < 15 {
		t.Fatalf("mispredicted branch run took only %d cycles", cycles)
	}
}

func TestROBFillsUnderLongLatencyLoad(t *testing.T) {
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	tm := &testMem{engine: e, latency: 2000}
	cfg := TableI("cpu0")
	cfg.ROBSize = 16
	c, err := New(e, cfg, tm, tm, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	// A load everything depends on, then 100 dependent ALU ops: ROB (16)
	// fills; stalls counted.
	ops := []isa.MicroOp{{PC: 0, Class: isa.Load, Dst: 1, Addr: 0, Size: 8}}
	for i := 0; i < 100; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 + 4*i), Class: isa.IntALU,
			Dst: isa.Reg(i + 2), Src1: 1})
	}
	finished := false
	c.Start(&SliceStream{Ops: ops}, func() { finished = true })
	e.Run()
	if !finished {
		t.Fatal("never finished")
	}
	if reg.Scope("cpu0").Get("rob_full_stalls") == 0 {
		t.Fatal("ROB never filled behind a 2000-cycle load")
	}
}

func TestInOrderCommit(t *testing.T) {
	e, c, _, _, _ := newCore(t, 100)
	// Load (slow) then ALU (fast): ALU may execute early but commits after.
	ops := []isa.MicroOp{
		{PC: 0, Class: isa.Load, Dst: 1, Addr: 0, Size: 8},
		{PC: 4, Class: isa.IntALU, Dst: 2},
	}
	cycles := run(t, e, c, ops)
	if cycles < 100 {
		t.Fatalf("commit did not wait for load: %d cycles", cycles)
	}
	if c.Committed() != 2 {
		t.Fatalf("committed %d", c.Committed())
	}
}

func TestDoubleStartPanics(t *testing.T) {
	e, c, _, _, _ := newCore(t, 10)
	c.Start(&SliceStream{Ops: []isa.MicroOp{{Class: isa.IntALU, Dst: 1}}}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
		e.Run()
	}()
	c.Start(&SliceStream{}, nil)
}

func TestSliceStream(t *testing.T) {
	s := &SliceStream{Ops: []isa.MicroOp{{PC: 1}, {PC: 2}}}
	a, ok := s.Next()
	if !ok || a.PC != 1 {
		t.Fatal("first op wrong")
	}
	b, ok := s.Next()
	if !ok || b.PC != 2 {
		t.Fatal("second op wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream did not end")
	}
}

func TestPredictorDirectly(t *testing.T) {
	p := newBranchPredictor(8, 256, 64)
	// Train always-taken at one PC; the GHR saturates to all-ones after 8
	// updates, then the steady-state PHT entry needs two more to go taken.
	for i := 0; i < 20; i++ {
		p.update(0x100, true)
	}
	if !p.predict(0x100) {
		t.Fatal("always-taken branch predicted not-taken after training")
	}
	// BTB: first sight misses, second hits.
	if p.btbHit(0x200) {
		t.Fatal("cold BTB hit")
	}
	if !p.btbHit(0x200) {
		t.Fatal("warm BTB miss")
	}
	// Conflicting PC evicts.
	conflicting := uint64(0x200 + 64*4)
	p.btbHit(conflicting)
	if p.btbHit(0x200) {
		t.Fatal("BTB entry survived conflict eviction")
	}
}

func TestVecOpsUseFPPipe(t *testing.T) {
	e, c, _, _, _ := newCore(t, 10)
	// 10 independent AVX compares on a single FP ALU: >= 10 cycles issue
	// serialisation even though all are independent.
	var ops []isa.MicroOp
	for i := 0; i < 10; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.VecCmp,
			Dst: isa.Reg(i + 1), Size: 64})
	}
	cycles := run(t, e, c, ops)
	if cycles < 12 {
		t.Fatalf("10 vec ops on 1 FP pipe took %d cycles", cycles)
	}
}

func TestRefusedTargetIsNotAskedAgainThisTick(t *testing.T) {
	const k = 3
	for _, replay := range []bool{true, false} {
		e := sim.NewEngine()
		tm := &testMem{engine: e, latency: 10}
		port := &refusingOffload{testOffload: testOffload{engine: e, latency: 50}, refuse: isa.TargetHMC}
		c, err := New(e, TableI("cpu0"), tm, tm, port, stats.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		SetReplay(c, replay)
		// k offloads to the refusing target, then one to another target.
		var ops []isa.MicroOp
		for i := 0; i <= k; i++ {
			inst := &isa.OffloadInst{Target: isa.TargetHMC}
			if i == k {
				inst.Target = isa.TargetHIVE
			}
			ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.Offload, Offload: inst})
		}
		c.Start(&SliceStream{Ops: ops}, nil)
		for len(c.readyQ) < k+1 {
			if !e.Step() {
				t.Fatal("the offloads never became ready")
			}
		}
		e.Step() // the tick that issues them
		wantHMC, wantCredit := 1, uint64(k-1)
		if !replay {
			wantHMC, wantCredit = k, 0
		}
		if port.calls[isa.TargetHMC] != wantHMC || port.credited != wantCredit {
			t.Errorf("replay %v: %d Submit calls for the refusing target and %d credited, want %d and %d",
				replay, port.calls[isa.TargetHMC], port.credited, wantHMC, wantCredit)
		}
		if c.counts.refused[portOffload] != k || c.counts.retry != k {
			t.Errorf("replay %v: counted %d refusals and %d retries, want %d", replay,
				c.counts.refused[portOffload], c.counts.retry, k)
		}
		if port.calls[isa.TargetHIVE] != 1 || c.offloads.Value() != 1 {
			t.Errorf("replay %v: the other target's offload did not issue in the same tick", replay)
		}
	}
}

func TestRestartWithoutResetMatchesFullTicks(t *testing.T) {
	// A run that ends parked on loads leaves a stall behind it; the next
	// Start must not replay it.
	var ops []isa.MicroOp
	for i := 0; i < 64; i++ {
		ops = append(ops, isa.MicroOp{PC: uint64(4 * i), Class: isa.Load, Dst: isa.Reg(i%8 + 1),
			Src1: isa.Reg((i + 7) % 8), Addr: mem.Addr(64 * i), Size: 8})
	}
	var cycles [2][2]sim.Cycle
	for r, replay := range []bool{false, true} {
		e, c, _, _, _ := newCore(t, 100)
		SetReplay(c, replay)
		for i := range cycles[r] {
			cycles[r][i] = run(t, e, c, ops)
		}
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("two runs took %v cycles with replay on, %v off", cycles[1], cycles[0])
	}
}
