package dram

import (
	"testing"
	"testing/quick"

	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

func newHMC(t *testing.T, timing Timing) (*sim.Engine, *HMC, *stats.Registry) {
	t.Helper()
	e := sim.NewEngine()
	reg := stats.NewRegistry()
	h, err := New(e, mem.HMC21(), timing, reg)
	if err != nil {
		t.Fatal(err)
	}
	return e, h, reg
}

func noRefresh() Timing {
	ti := HMC21Timing()
	ti.RefreshInterval = 0
	return ti
}

func TestTimingValidate(t *testing.T) {
	if err := HMC21Timing().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HMC21Timing()
	bad.ClockRatio = 0
	if bad.Validate() == nil {
		t.Fatal("zero clock ratio accepted")
	}
	bad = HMC21Timing()
	bad.RefreshCycles = 20000
	if bad.Validate() == nil {
		t.Fatal("refresh busy >= interval accepted")
	}
}

func TestAccessLatencyFormula(t *testing.T) {
	ti := HMC21Timing()
	// Read 256 B: tRCD(9*12) + CAS(9*12) + 32 beats * 2 = 108+108+64 = 280.
	if got := ti.AccessLatency(256, mem.Read); got != 280 {
		t.Fatalf("256B read latency = %d, want 280", got)
	}
	// Read 16 B: 108+108+2*2 = 220.
	if got := ti.AccessLatency(16, mem.Read); got != 220 {
		t.Fatalf("16B read latency = %d, want 220", got)
	}
	// Write 64 B: tRCD + CWD(7*12=84) + 8*2 = 108+84+16 = 208.
	if got := ti.AccessLatency(64, mem.Write); got != 208 {
		t.Fatalf("64B write latency = %d, want 208", got)
	}
}

func TestSingleReadCompletesAtUnloadedLatency(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	var doneAt sim.Cycle
	h.Access(&mem.Request{Addr: 0, Size: 256, Kind: mem.Read,
		Done: func(now sim.Cycle) { doneAt = now }})
	e.Run()
	if doneAt != 280 {
		t.Fatalf("read completed at %d, want 280", doneAt)
	}
}

func TestRowBoundaryCrossingPanics(t *testing.T) {
	_, h, _ := newHMC(t, noRefresh())
	defer func() {
		if recover() == nil {
			t.Fatal("row-crossing request did not panic")
		}
	}()
	h.Access(&mem.Request{Addr: 200, Size: 100, Kind: mem.Read})
}

func TestZeroSizePanics(t *testing.T) {
	_, h, _ := newHMC(t, noRefresh())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size request did not panic")
		}
	}()
	h.Access(&mem.Request{Addr: 0, Size: 0, Kind: mem.Read})
}

// Two reads to the same bank must serialise on the bank cycle time; two
// reads to different banks of the same vault overlap except on the bus.
func TestBankLevelParallelism(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	g := mem.HMC21()
	sameBank2 := g.Compose(mem.Location{Vault: 0, Bank: 0, Row: 1})
	otherBank := g.Compose(mem.Location{Vault: 0, Bank: 1, Row: 0})

	var t1, t2, t3 sim.Cycle
	h.Access(&mem.Request{Addr: 0, Size: 256, Kind: mem.Read, Done: func(c sim.Cycle) { t1 = c }})
	h.Access(&mem.Request{Addr: sameBank2, Size: 256, Kind: mem.Read, Done: func(c sim.Cycle) { t2 = c }})
	e.Run()

	e2, h2, _ := newHMC(t, noRefresh())
	h2.Access(&mem.Request{Addr: 0, Size: 256, Kind: mem.Read, Done: func(c sim.Cycle) { t1 = c }})
	h2.Access(&mem.Request{Addr: otherBank, Size: 256, Kind: mem.Read, Done: func(c sim.Cycle) { t3 = c }})
	e2.Run()

	if t2 <= t1 {
		t.Fatalf("same-bank second read at %d not after first %d", t2, t1)
	}
	if t3 >= t2 {
		t.Fatalf("different-bank read (%d) should finish before same-bank read (%d)", t3, t2)
	}
	// Different banks: second burst queues behind the first on the bus:
	// finish ≈ first burst end + 64.
	if t3 != t1+64 {
		t.Fatalf("bank-parallel read finished at %d, want %d", t3, t1+64)
	}
}

// Reads to different vaults must be fully independent.
func TestVaultParallelism(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	var done []sim.Cycle
	for v := 0; v < 32; v++ {
		h.Access(&mem.Request{Addr: mem.Addr(v * 256), Size: 256, Kind: mem.Read,
			Done: func(c sim.Cycle) { done = append(done, c) }})
	}
	e.Run()
	if len(done) != 32 {
		t.Fatalf("completed %d of 32", len(done))
	}
	for i, c := range done {
		// Each vault sees one request; only the 1-cycle controller slots
		// distinguish arrival order... but arrival slots are per vault, so
		// all complete at exactly the unloaded latency.
		if c != 280 {
			t.Fatalf("vault %d completed at %d, want 280", i, c)
		}
	}
}

func TestClosedPageNeverRowHits(t *testing.T) {
	e, h, reg := newHMC(t, noRefresh())
	for i := 0; i < 4; i++ {
		h.Access(&mem.Request{Addr: 0, Size: 64, Kind: mem.Read})
	}
	e.Run()
	if hits := reg.Total("dram.", "row_hits"); hits != 0 {
		t.Fatalf("closed page produced %d row hits", hits)
	}
	if acts := reg.Total("dram.", "activations"); acts != 4 {
		t.Fatalf("closed page activations = %d, want 4", acts)
	}
}

func TestOpenPageRowHits(t *testing.T) {
	ti := noRefresh()
	ti.Policy = OpenPage
	e, h, reg := newHMC(t, ti)
	var last sim.Cycle
	for i := 0; i < 4; i++ {
		h.Access(&mem.Request{Addr: mem.Addr(i * 64), Size: 64, Kind: mem.Read,
			Done: func(c sim.Cycle) { last = c }})
	}
	e.Run()
	if hits := reg.Total("dram.", "row_hits"); hits != 3 {
		t.Fatalf("open page row hits = %d, want 3", hits)
	}
	if acts := reg.Total("dram.", "activations"); acts != 1 {
		t.Fatalf("open page activations = %d, want 1", acts)
	}
	// Open-page stream must be faster than closed-page stream.
	e2, h2, _ := newHMC(t, noRefresh())
	var lastClosed sim.Cycle
	for i := 0; i < 4; i++ {
		h2.Access(&mem.Request{Addr: mem.Addr(i * 64), Size: 64, Kind: mem.Read,
			Done: func(c sim.Cycle) { lastClosed = c }})
	}
	e2.Run()
	if last >= lastClosed {
		t.Fatalf("open page (%d) not faster than closed page (%d)", last, lastClosed)
	}
}

func TestBusSerialisesBursts(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	g := mem.HMC21()
	// 8 reads, one per bank of vault 0: activations overlap, bursts serialise.
	var finishes []sim.Cycle
	for b := uint32(0); b < 8; b++ {
		addr := g.Compose(mem.Location{Vault: 0, Bank: b})
		h.Access(&mem.Request{Addr: addr, Size: 256, Kind: mem.Read,
			Done: func(c sim.Cycle) { finishes = append(finishes, c) }})
	}
	e.Run()
	if len(finishes) != 8 {
		t.Fatalf("completed %d", len(finishes))
	}
	for i := 1; i < len(finishes); i++ {
		gap := finishes[i] - finishes[i-1]
		if gap != 64 { // 256B burst = 32 beats * 2 cycles
			t.Fatalf("burst gap %d at %d, want 64", gap, i)
		}
	}
}

func TestSameBankThroughputLimitedByRC(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	// Many reads to the same bank: steady-state spacing = tRC = tRAS+tRP
	// = (24+9)*12 = 396 cycles (RAS dominates the 280-cycle access).
	var finishes []sim.Cycle
	g := mem.HMC21()
	for r := uint64(0); r < 6; r++ {
		addr := g.Compose(mem.Location{Vault: 0, Bank: 0, Row: r})
		h.Access(&mem.Request{Addr: addr, Size: 256, Kind: mem.Read,
			Done: func(c sim.Cycle) { finishes = append(finishes, c) }})
	}
	e.Run()
	for i := 2; i < len(finishes); i++ {
		gap := finishes[i] - finishes[i-1]
		if gap != 396 {
			t.Fatalf("same-bank steady gap = %d, want 396", gap)
		}
	}
}

func TestRefreshStallsAccesses(t *testing.T) {
	ti := noRefresh()
	ti.RefreshInterval = 1000
	ti.RefreshCycles = 300
	e, h, reg := newHMC(t, ti)
	var doneAt sim.Cycle
	// Schedule an access that starts right at the refresh boundary.
	e.Schedule(1000, func() {
		h.Access(&mem.Request{Addr: 0, Size: 16, Kind: mem.Read,
			Done: func(c sim.Cycle) { doneAt = c }})
	})
	e.Run()
	// Start pushed to 1300, plus unloaded 220.
	if doneAt != 1520 {
		t.Fatalf("refresh-stalled read done at %d, want 1520", doneAt)
	}
	if reg.Total("dram.", "refreshes") != 1 {
		t.Fatalf("refresh count = %d", reg.Total("dram.", "refreshes"))
	}
}

func TestStatsCounts(t *testing.T) {
	e, h, reg := newHMC(t, noRefresh())
	h.Access(&mem.Request{Addr: 0, Size: 256, Kind: mem.Read})
	h.Access(&mem.Request{Addr: 512, Size: 64, Kind: mem.Write})
	e.Run()
	if reg.Total("dram.", "reads") != 1 || reg.Total("dram.", "writes") != 1 {
		t.Fatal("read/write counts wrong")
	}
	if reg.Total("dram.", "bytes_read") != 256 || reg.Total("dram.", "bytes_written") != 64 {
		t.Fatal("byte counts wrong")
	}
	if h.Vault(0).ID() != 0 || h.NumVaults() != 32 {
		t.Fatal("vault identity accessors wrong")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	e := sim.NewEngine()
	_, err := New(e, mem.Geometry{Vaults: 3, Banks: 8, RowBytes: 256, Total: 1 << 30},
		HMC21Timing(), stats.NewRegistry())
	if err == nil {
		t.Fatal("bad geometry accepted")
	}
	_, err = New(e, mem.HMC21(), Timing{}, stats.NewRegistry())
	if err == nil {
		t.Fatal("bad timing accepted")
	}
}

// Property: completion time is never before arrival + unloaded latency,
// and all Done callbacks fire exactly once.
func TestLatencyLowerBoundProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		e, h, _ := newHMC(t, noRefresh())
		g := mem.HMC21()
		fired := 0
		ok := true
		for _, raw := range addrs {
			a := g.RowBase(mem.Addr(uint64(raw) % g.Total))
			h.Access(&mem.Request{Addr: a, Size: 64, Kind: mem.Read,
				Done: func(c sim.Cycle) {
					fired++
					if c < 232 { // unloaded 64B read: 108+108+16
						ok = false
					}
				}})
		}
		e.Run()
		return ok && fired == len(addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if ClosedPage.String() != "closed-page" || OpenPage.String() != "open-page" {
		t.Fatal("policy strings wrong")
	}
}

// Aggregate streaming bandwidth across all vaults should approach the
// TSV-bus limit: 4 B/cycle per vault × 32 vaults = 128 B/cycle.
func TestAggregateStreamBandwidth(t *testing.T) {
	e, h, _ := newHMC(t, noRefresh())
	const rows = 32 * 64 // 64 rows per vault
	var last sim.Cycle
	for i := 0; i < rows; i++ {
		h.Access(&mem.Request{Addr: mem.Addr(i * 256), Size: 256, Kind: mem.Read,
			Done: func(c sim.Cycle) {
				if c > last {
					last = c
				}
			}})
	}
	e.Run()
	bytes := float64(rows * 256)
	bw := bytes / float64(last)
	if bw < 100 || bw > 128.1 {
		t.Fatalf("aggregate stream bandwidth = %.1f B/cycle, want ~128", bw)
	}
}
