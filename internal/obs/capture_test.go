package obs

// Counter-capture pins: a capture reads the registry through a layout
// kept with it, so it costs the same few allocations however many
// counters the registry holds, and a counter created after a capture
// still reaches the next one.

import (
	"fmt"
	"testing"

	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// TestCaptureDoNotAllocatePerCounter requires at most two allocations
// per Capture — the snapshot and its entries — on a default machine's
// registry and on registries of 10 and 1000 counters.
func TestCaptureDoNotAllocatePerCounter(t *testing.T) {
	m, err := machine.New(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	regs := map[string]*stats.Registry{"default machine": m.Registry}
	for _, n := range []int{10, 1000} {
		reg := stats.NewRegistry()
		for i := 0; i < n; i++ {
			reg.Scope(fmt.Sprintf("dram.vault%02d", i%32)).Counter(fmt.Sprintf("c%d", i)).Add(uint64(i))
		}
		regs[fmt.Sprintf("%d counters", n)] = reg
	}
	for name, reg := range regs {
		Capture(reg, m.Engine) // builds the layout
		if n := testing.AllocsPerRun(100, func() { Capture(reg, m.Engine) }); n > 2 {
			t.Errorf("%s: Capture makes %v allocations, want at most 2", name, n)
		}
	}
}

// TestCaptureSeesCounterAddedLater adds a counter, and then a scope,
// after a first capture and requires the next capture to include each.
func TestCaptureSeesCounterAddedLater(t *testing.T) {
	reg := buildRegistry()
	eng := sim.NewEngine()
	first := Capture(reg, eng)
	if _, ok := first.Get("l1d.write_hits"); ok {
		t.Fatal("key present before its counter exists")
	}
	reg.Scope("l1d").Counter("write_hits").Add(9)
	if got, ok := Capture(reg, eng).Get("l1d.write_hits"); !ok || got != 9 {
		t.Fatalf("l1d.write_hits = %d, %v after the counter was added; want 9", got, ok)
	}
	reg.Scope("dram.vault02").Counter("reads").Add(5)
	next := Capture(reg, eng)
	if got, _ := next.Get("dram.reads"); got != 12 {
		t.Fatalf("dram.reads = %d after a new vault scope, want 12", got)
	}
	if next.Len() != first.Len()+1 {
		t.Fatalf("%d keys, want %d", next.Len(), first.Len()+1)
	}
	// A capture without the engine leaves its keys out.
	if _, ok := Capture(reg, nil).Get("engine.events_executed"); ok {
		t.Fatal("engine key present in a registry-only capture")
	}
}

// BenchmarkCapture times one capture of a default machine's counters.
func BenchmarkCapture(b *testing.B) {
	m, err := machine.New(machine.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Capture(m.Registry, m.Engine)
	}
}
