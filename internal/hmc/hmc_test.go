package hmc

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

// recorder is a checker that keeps a copy of every result reported to
// it.
type recorder struct{ results [][]byte }

func (r *recorder) Check(_ *isa.OffloadInst, result []byte) {
	r.results = append(r.results, append([]byte(nil), result...))
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{FULatency: 0, MaxInFlight: 4}).Validate() == nil {
		t.Fatal("zero latency accepted")
	}
	if (Config{FULatency: 1, MaxInFlight: 0}).Validate() == nil {
		t.Fatal("zero window accepted")
	}
}

func TestCmpReadComputesMask(t *testing.T) {
	e, eng, image, reg := newEngine(t, Default())
	// 16 lanes at address 0: values 0..15; compare < 8 → mask 0x00FF.
	for i := 0; i < 16; i++ {
		isa.SetLane(image, i, int32(i))
	}
	var rec recorder
	eng.SetChecker(&rec)
	var doneAt sim.Cycle
	inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLT,
		Addr: 0, Size: 64, Imm: 8, Check: true}
	ok := eng.Submit(inst, func(now sim.Cycle) { doneAt = now })
	if !ok {
		t.Fatal("submit refused")
	}
	e.Run()
	if len(rec.results) != 1 || !bytes.Equal(rec.results[0], []byte{0xFF, 0x00}) {
		t.Fatalf("checked results = %x, want one ff00", rec.results)
	}
	if doneAt == 0 {
		t.Fatal("done never fired")
	}
	// Round trip must include link (2x) + DRAM access + FU.
	if doneAt < 240 {
		t.Fatalf("round trip = %d, implausibly fast", doneAt)
	}
	if reg.Scope("hmc").Get("cmp_reads") != 1 {
		t.Fatal("stat not counted")
	}
	if eng.InFlight() != 0 {
		t.Fatal("window not released")
	}
}

// TestSubmitCopiesInstruction pins the engine's own copy: the core
// reuses its instruction slot once the µop commits, so overwriting the
// submitted instruction before the vault executes it must not change
// the result.
func TestSubmitCopiesInstruction(t *testing.T) {
	run := func(overwrite bool) [][]byte {
		e, eng, image, _ := newEngine(t, Default())
		for i := 0; i < 64; i++ {
			isa.SetLane(image, i, int32(i))
		}
		var rec recorder
		eng.SetChecker(&rec)
		for c := 0; c < 4; c++ {
			inst := isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpLT,
				Addr: mem.Addr(c * 64), Size: 64, Imm: int32(8 + 10*c), Check: true}
			if !eng.Submit(&inst, func(sim.Cycle) {}) {
				t.Fatal("submit refused")
			}
			if overwrite {
				inst = isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
					Addr: 0x4000, Size: 256, Imm: -1, Check: true}
			}
		}
		e.Run()
		return rec.results
	}
	want, got := run(false), run(true)
	if len(want) != 4 {
		t.Fatalf("%d checked results, want 4", len(want))
	}
	for i := range want {
		if i >= len(got) || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("overwriting submitted instructions changed the results: %x, want %x", got, want)
		}
	}
}

func TestAddImmUpdatesMemoryInPlace(t *testing.T) {
	e, eng, image, reg := newEngine(t, Default())
	isa.SetLane(image, 0, 40)
	isa.SetLane(image, 1, -2)
	inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.AddImm, Addr: 0, Size: 8, Imm: 2}
	eng.Submit(inst, func(sim.Cycle) {})
	e.Run()
	if isa.LaneAt(image, 0) != 42 || isa.LaneAt(image, 1) != 0 {
		t.Fatalf("addimm result = %d,%d", isa.LaneAt(image, 0), isa.LaneAt(image, 1))
	}
	// Update instructions write DRAM back.
	if reg.Total("dram.", "writes") != 1 {
		t.Fatalf("writes = %d, want 1", reg.Total("dram.", "writes"))
	}
}

func TestCompareSwap(t *testing.T) {
	e, eng, image, _ := newEngine(t, Default())
	isa.SetLane(image, 0, 7)
	var rec recorder
	eng.SetChecker(&rec)
	inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CompareSwap, Addr: 0,
		Imm: 7, Imm2: 99, Check: true}
	eng.Submit(inst, func(sim.Cycle) {})
	e.Run()
	if isa.LaneAt(image, 0) != 99 {
		t.Fatalf("cas did not swap: %d", isa.LaneAt(image, 0))
	}
	if len(rec.results) != 1 || isa.LaneAt(rec.results[0], 0) != 7 {
		t.Fatalf("cas checked results = %x, want one old value 7", rec.results)
	}
	// Failed CAS does not write.
	e2, eng2, image2, reg2 := newEngine(t, Default())
	isa.SetLane(image2, 0, 5)
	eng2.Submit(&isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CompareSwap, Addr: 0,
		Imm: 7, Imm2: 99}, func(sim.Cycle) {})
	e2.Run()
	if isa.LaneAt(image2, 0) != 5 {
		t.Fatal("failed cas overwrote memory")
	}
	if reg2.Total("dram.", "writes") != 0 {
		t.Fatal("failed cas wrote DRAM")
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	cfg := Default()
	cfg.MaxInFlight = 2
	e, eng, _, reg := newEngine(t, cfg)
	accepted := 0
	for i := 0; i < 4; i++ {
		inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpEQ,
			Addr: mem.Addr(i * 256), Size: 64, Imm: 1}
		if eng.Submit(inst, func(sim.Cycle) {}) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2 (window)", accepted)
	}
	if reg.Scope("hmc").Get("window_rejects") != 2 {
		t.Fatal("rejects not counted")
	}
	e.Run()
	if eng.InFlight() != 0 {
		t.Fatal("window never drained")
	}
}

func TestWrongTargetPanics(t *testing.T) {
	_, eng, _, _ := newEngine(t, Default())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong target did not panic")
		}
	}()
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHIVE, Op: isa.VLoad, Size: 64}, func(sim.Cycle) {})
}

func TestInvalidInstructionPanics(t *testing.T) {
	_, eng, _, _ := newEngine(t, Default())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid instruction did not panic")
		}
	}()
	eng.Submit(&isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.Add, Size: 64},
		func(sim.Cycle) {})
}

func TestParallelCmpReadsAcrossVaults(t *testing.T) {
	e, eng, _, _ := newEngine(t, Default())
	// 16 cmpreads to 16 different vaults: wall time should be far below
	// 16 serialized round trips.
	var last sim.Cycle
	for i := 0; i < 16; i++ {
		inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
			Addr: mem.Addr(i * 256), Size: 256, Imm: 0}
		if !eng.Submit(inst, func(now sim.Cycle) {
			if now > last {
				last = now
			}
		}) {
			t.Fatalf("submit %d refused", i)
		}
	}
	e.Run()
	oneRT := sim.Cycle(280 + 40) // dram + links, roughly
	if last > 4*oneRT {
		t.Fatalf("16 parallel cmpreads took %d cycles (> 4 round trips)", last)
	}
}

func TestSameRowCmpReadsSerialiseOnBank(t *testing.T) {
	e, eng, _, _ := newEngine(t, Default())
	// 4 cmpreads within the same 256B row: bank tRC serialises them.
	var last sim.Cycle
	for i := 0; i < 4; i++ {
		inst := &isa.OffloadInst{Target: isa.TargetHMC, Op: isa.CmpRead, ALU: isa.CmpGE,
			Addr: mem.Addr(i * 64), Size: 64, Imm: 0}
		eng.Submit(inst, func(now sim.Cycle) {
			if now > last {
				last = now
			}
		})
	}
	e.Run()
	// 4 closed-page same-bank accesses: >= 3*tRC + access ≈ 1400.
	if last < 1300 {
		t.Fatalf("same-row cmpreads finished at %d; bank serialisation missing", last)
	}
}
