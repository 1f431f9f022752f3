package core

import (
	"bytes"
	"testing"

	"github.com/hipe-sim/hipe/internal/dram"
	"github.com/hipe-sim/hipe/internal/isa"
	"github.com/hipe-sim/hipe/internal/link"
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

func newEngine(t *testing.T, cfg Config) (*sim.Engine, *Engine, []byte, *stats.Registry) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	ti := dram.HMC21Timing()
	ti.RefreshInterval = 0
	vaults, err := dram.New(e, mem.HMC21(), ti, reg)
	if err != nil {
		t.Fatal(err)
	}
	links, err := link.New(e, link.Default(), 32, reg)
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, 1<<20)
	eng, err := New(e, cfg, links, vaults, image, reg)
	if err != nil {
		t.Fatal(err)
	}
	return e, eng, image, reg
}

// submit posts an instruction ignoring the done callback.
func submit(t *testing.T, eng *Engine, inst *isa.OffloadInst) {
	t.Helper()
	if !eng.Submit(inst, func(sim.Cycle) {}) {
		t.Fatalf("submit refused: %s", inst)
	}
}

func hipeInst(op isa.OffloadOp) *isa.OffloadInst {
	return &isa.OffloadInst{Target: isa.TargetHIPE, Op: op}
}

// recorder is a checker that keeps a copy of every result reported to
// it.
type recorder struct{ results [][]byte }

func (r *recorder) Check(_ *isa.OffloadInst, result []byte) {
	r.results = append(r.results, append([]byte(nil), result...))
}

// TestSubmitCopiesInstruction pins the engine's own copy: HIVE and HIPE
// execute posted instructions long after Submit returns, so a caller
// that reuses its instruction storage right away (as the core's fetch
// ring and the µop streams do) must not change what runs. Every
// instruction is overwritten with a different, valid one before Run.
func TestSubmitCopiesInstruction(t *testing.T) {
	for _, cfg := range []Config{DefaultHIVE(), DefaultHIPE()} {
		t.Run(cfg.Name, func(t *testing.T) {
			run := func(overwrite bool) ([]byte, [][]byte) {
				e, eng, image, _ := newEngine(t, cfg)
				for i := 0; i < 64; i++ {
					isa.SetLane(image, i, int32(i%3))
				}
				var rec recorder
				eng.SetChecker(&rec)
				for _, in := range []isa.OffloadInst{
					{Op: isa.Lock},
					{Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256},
					{Op: isa.VALU, ALU: isa.CmpEQ, Dst: 1, Src1: 0, UseImm: true, Imm: 1},
					{Op: isa.VMaskStore, Src1: 1, Addr: 0x2000, Size: 256, Check: true},
					{Op: isa.Unlock},
				} {
					in.Target = cfg.Target
					inst := in
					submit(t, eng, &inst)
					if overwrite {
						inst = isa.OffloadInst{Target: cfg.Target, Op: isa.VStore,
							Src1: 2, Addr: 0x3000, Size: 256, Check: true}
					}
				}
				e.Run()
				return image[:0x4000], rec.results
			}
			wantImage, wantResults := run(false)
			gotImage, gotResults := run(true)
			if len(wantResults) != 1 {
				t.Fatalf("%d checked results, want 1", len(wantResults))
			}
			if !bytes.Equal(gotImage, wantImage) {
				t.Fatal("overwriting submitted instructions changed the image")
			}
			if len(gotResults) != 1 || !bytes.Equal(gotResults[0], wantResults[0]) {
				t.Fatalf("overwriting submitted instructions changed the results: %x, want %x", gotResults, wantResults)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultHIPE().Validate(); err != nil {
		t.Fatal(err)
	}
	hive := DefaultHIVE()
	if hive.Target != isa.TargetHIVE || hive.Name != "hive" {
		t.Fatalf("HIVE default has target %s and stats scope %q", hive.Target, hive.Name)
	}
	if err := hive.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultHIPE()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bad = DefaultHIPE()
	bad.Target = isa.TargetHMC
	if bad.Validate() == nil {
		t.Fatal("HMC target accepted")
	}
	bad = DefaultHIPE()
	bad.Width = 0
	if bad.Validate() == nil {
		t.Fatal("zero width accepted")
	}
	bad = DefaultHIPE()
	bad.IntALULatency = 0
	if bad.Validate() == nil {
		t.Fatal("zero latency accepted")
	}
}

func TestLockUnlockRoundTrip(t *testing.T) {
	e, eng, _, reg := newEngine(t, DefaultHIPE())
	var lockAt, unlockAt sim.Cycle
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.Lock},
		func(now sim.Cycle) { lockAt = now })
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.Unlock},
		func(now sim.Cycle) { unlockAt = now })
	e.Run()
	if lockAt == 0 || unlockAt == 0 || unlockAt <= lockAt {
		t.Fatalf("lock at %d, unlock at %d", lockAt, unlockAt)
	}
	if eng.Locked() {
		t.Fatal("engine still locked")
	}
	if reg.Scope("hipe").Get("lock_blocks") != 1 {
		t.Fatal("lock block not counted")
	}
}

func TestVLoadSetsDataAndZeroFlag(t *testing.T) {
	e, eng, image, _ := newEngine(t, DefaultHIPE())
	for i := 0; i < 64; i++ {
		isa.SetLane(image[0x400:], i, int32(i))
	}
	ld := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 1, Addr: 0x400, Size: 256}
	submit(t, eng, ld)
	// A second load from a zero region to test the zero flag.
	ld2 := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 2, Addr: 0x800, Size: 256}
	submit(t, eng, ld2)
	e.Run()
	data := eng.RegisterData(1)
	if isa.LaneAt(data, 5) != 5 || isa.LaneAt(data, 63) != 63 {
		t.Fatalf("register data wrong: %d %d", isa.LaneAt(data, 5), isa.LaneAt(data, 63))
	}
	if eng.RegisterZero(1) {
		t.Fatal("nonzero load set zero flag")
	}
	if !eng.RegisterZero(2) {
		t.Fatal("zero load cleared zero flag")
	}
	if eng.RegisterPending(1) || eng.RegisterPending(2) {
		t.Fatal("registers still pending after run")
	}
}

func TestVALUComputesAndSetsFlags(t *testing.T) {
	for _, cfg := range []Config{DefaultHIPE(), DefaultHIVE()} {
		t.Run(cfg.Name, func(t *testing.T) {
			e, eng, image, reg := newEngine(t, cfg)
			for i := 0; i < 64; i++ {
				isa.SetLane(image[0:], i, int32(i)) // 0..63
			}
			submit(t, eng, &isa.OffloadInst{Target: cfg.Target, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
			// r1 = r0 >= 32 → half the lanes match → nonzero.
			submit(t, eng, &isa.OffloadInst{Target: cfg.Target, Op: isa.VALU, ALU: isa.CmpGE,
				Dst: 1, Src1: 0, UseImm: true, Imm: 32})
			// r2 = r0 >= 100 → no lanes match → zero flag set.
			submit(t, eng, &isa.OffloadInst{Target: cfg.Target, Op: isa.VALU, ALU: isa.CmpGE,
				Dst: 2, Src1: 0, UseImm: true, Imm: 100})
			// r3 = r1 AND r2 → all zero.
			submit(t, eng, &isa.OffloadInst{Target: cfg.Target, Op: isa.VALU, ALU: isa.And,
				Dst: 3, Src1: 1, Src2: 2})
			e.Run()
			if eng.RegisterZero(1) {
				t.Fatal("r1 should be nonzero")
			}
			if !eng.RegisterZero(2) || !eng.RegisterZero(3) {
				t.Fatal("r2/r3 zero flags wrong")
			}
			r1 := eng.RegisterData(1)
			if isa.LaneAt(r1, 31) != 0 || isa.LaneAt(r1, 32) != -1 {
				t.Fatal("compare lanes wrong")
			}
			if n := reg.Scope(cfg.Name).Get("instructions"); n != 4 {
				t.Fatalf("%d instructions counted, want 4", n)
			}
		})
	}
}

func TestVStoreWritesImageAndDRAM(t *testing.T) {
	e, eng, image, reg := newEngine(t, DefaultHIPE())
	for i := 0; i < 64; i++ {
		isa.SetLane(image[0:], i, 7)
	}
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VStore, Src1: 0, Addr: 0x1000, Size: 256})
	e.Run()
	if isa.LaneAt(image[0x1000:], 63) != 7 {
		t.Fatal("store did not reach the image")
	}
	if reg.Total("dram.", "writes") != 1 {
		t.Fatalf("dram writes = %d", reg.Total("dram.", "writes"))
	}
}

func TestVMaskStoreCompacts(t *testing.T) {
	e, eng, image, _ := newEngine(t, DefaultHIPE())
	for i := 0; i < 64; i++ {
		isa.SetLane(image[0:], i, int32(i%2)) // alternating 0,1
	}
	var rec recorder
	eng.SetChecker(&rec)
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.CmpEQ,
		Dst: 1, Src1: 0, UseImm: true, Imm: 1})
	ms := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VMaskStore, Src1: 1, Addr: 0x2000, Size: 256,
		Check: true}
	submit(t, eng, ms)
	e.Run()
	want := bytes.Repeat([]byte{0xAA}, 8) // odd lanes set
	if len(rec.results) != 1 || !bytes.Equal(rec.results[0], want) {
		t.Fatalf("checked masks = %x, want one %x", rec.results, want)
	}
	if !bytes.Equal(image[0x2000:0x2008], want) {
		t.Fatalf("image mask = %x", image[0x2000:0x2008])
	}
}

func TestInterlockOverlapsLoads(t *testing.T) {
	// Loads to different vaults issued back-to-back must overlap: the
	// sequencer does not wait for load data unless a consumer needs it.
	e, eng, _, _ := newEngine(t, DefaultHIPE())
	start := sim.Cycle(0)
	var last sim.Cycle
	for i := 0; i < 8; i++ {
		inst := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad,
			Dst: uint8(i), Addr: mem.Addr(i * 256), Size: 256}
		submit(t, eng, inst)
	}
	done := false
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.Unlock},
		func(now sim.Cycle) { last = now; done = true })
	e.Run()
	if !done {
		t.Fatal("unlock never acknowledged")
	}
	// 8 parallel 280-cycle vault reads + engine overhead: well under the
	// 8*280 = 2240 a serial engine would need.
	if last-start > 1200 {
		t.Fatalf("8 overlapping loads took %d cycles", last)
	}
}

func TestInterlockStallsOnRealDependency(t *testing.T) {
	e, eng, _, reg := newEngine(t, DefaultHIPE())
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	// Consumer of r0 must stall until the load returns.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.CmpGE,
		Dst: 1, Src1: 0, UseImm: true, Imm: 0})
	e.Run()
	if reg.Scope("hipe").Get("interlock_stall_cycles") == 0 {
		t.Fatal("no interlock stalls recorded for a real dependency")
	}
}

func TestPredicationSquashesOnZeroFlag(t *testing.T) {
	e, eng, image, reg := newEngine(t, DefaultHIPE())
	// Region A (0x0): all zeros → compare produces zero mask → z flag.
	// Region B (0x400): values 1 → compare matches.
	for i := 0; i < 64; i++ {
		isa.SetLane(image[0x400:], i, 1)
	}
	// Load A, compare→r1 (zero), predicated load of 0x800 on r1 nonzero:
	// must squash.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.CmpEQ,
		Dst: 1, Src1: 0, UseImm: true, Imm: 1})
	squashedLoad := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 2,
		Addr: 0x800, Size: 256, Pred: isa.Predicate{Valid: true, Reg: 1, WhenZero: false}}
	submit(t, eng, squashedLoad)
	// Load B, compare→r4 (nonzero), predicated load executes.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 3, Addr: 0x400, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.CmpEQ,
		Dst: 4, Src1: 3, UseImm: true, Imm: 1})
	executedLoad := &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 5,
		Addr: 0x400, Size: 256, Pred: isa.Predicate{Valid: true, Reg: 4, WhenZero: false}}
	submit(t, eng, executedLoad)
	e.Run()
	sc := reg.Scope("hipe")
	if sc.Get("squashed") != 1 || sc.Get("squashed_loads") != 1 {
		t.Fatalf("squashed = %d", sc.Get("squashed"))
	}
	if sc.Get("squashed_dram_bytes") != 256 {
		t.Fatalf("squashed bytes = %d", sc.Get("squashed_dram_bytes"))
	}
	// The executed predicated load must have real data.
	if eng.RegisterZero(5) {
		t.Fatal("predicated load that should execute was squashed")
	}
	// The squashed destination register must remain untouched (zero).
	if !eng.RegisterZero(2) {
		t.Fatal("squashed load modified its destination")
	}
	// DRAM reads: 3 loads executed, 1 squashed.
	if reg.Total("dram.", "reads") != 3 {
		t.Fatalf("dram reads = %d, want 3", reg.Total("dram.", "reads"))
	}
}

func TestPredicationWhenZeroVariant(t *testing.T) {
	e, eng, _, reg := newEngine(t, DefaultHIPE())
	// r0 loads zeros → zero flag set → WhenZero predicate executes.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VALU, ALU: isa.Add,
		Dst: 1, Src1: 0, UseImm: true, Imm: 1,
		Pred: isa.Predicate{Valid: true, Reg: 0, WhenZero: true}})
	e.Run()
	if reg.Scope("hipe").Get("squashed") != 0 {
		t.Fatal("when-zero predicate squashed on a zero register")
	}
	if eng.RegisterZero(1) {
		t.Fatal("predicated add did not execute")
	}
}

func TestPredicateStallCountsAsDataDependency(t *testing.T) {
	e, eng, _, reg := newEngine(t, DefaultHIPE())
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	// Predicated on r0 which is pending: the predication match logic must
	// wait for the flag — the cost HIPE pays vs HIVE.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 1, Addr: 0x400,
		Size: 256, Pred: isa.Predicate{Valid: true, Reg: 0, WhenZero: true}})
	e.Run()
	if reg.Scope("hipe").Get("predicate_stall_cycles") == 0 {
		t.Fatal("no predicate stalls recorded")
	}
}

func TestHIVEModeRejectsPredication(t *testing.T) {
	_, eng, _, _ := newEngine(t, DefaultHIVE())
	defer func() {
		if recover() == nil {
			t.Fatal("predicated instruction on HIVE did not panic")
		}
	}()
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIVE, Op: isa.VLoad, Dst: 0, Size: 256,
		Pred: isa.Predicate{Valid: true, Reg: 1}}, func(sim.Cycle) {})
}

func TestWrongTargetPanics(t *testing.T) {
	_, eng, _, _ := newEngine(t, DefaultHIPE())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong target did not panic")
		}
	}()
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIVE, Op: isa.Lock}, func(sim.Cycle) {})
}

func TestUnlockWaitsForStores(t *testing.T) {
	e, eng, _, _ := newEngine(t, DefaultHIPE())
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.Lock})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0, Size: 256})
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VStore, Src1: 0, Addr: 0x1000, Size: 256})
	var unlockAt sim.Cycle
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.Unlock},
		func(now sim.Cycle) { unlockAt = now })
	e.Run()
	// Unlock must be later than a load (280) + store (208) chain plus
	// link traversal: conservatively > 450.
	if unlockAt < 450 {
		t.Fatalf("unlock acked at %d; did not wait for the block", unlockAt)
	}
}

func TestRowStraddlingLoadFansOut(t *testing.T) {
	e, eng, image, reg := newEngine(t, DefaultHIPE())
	isa.SetLane(image[0x80:], 0, 5)
	// 256B load at offset 0x80 crosses a row boundary: two vault accesses.
	submit(t, eng, &isa.OffloadInst{Target: isa.TargetHIPE, Op: isa.VLoad, Dst: 0, Addr: 0x80, Size: 256})
	e.Run()
	if reg.Total("dram.", "reads") != 2 {
		t.Fatalf("straddling load issued %d reads, want 2", reg.Total("dram.", "reads"))
	}
	if isa.LaneAt(eng.RegisterData(0), 0) != 5 {
		t.Fatal("straddling load data wrong")
	}
}

func TestQueueDepthAccessor(t *testing.T) {
	_, eng, _, _ := newEngine(t, DefaultHIPE())
	if eng.QueueDepth() != 0 {
		t.Fatal("fresh engine has queued instructions")
	}
}
