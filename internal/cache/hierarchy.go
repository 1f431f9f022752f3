package cache

import (
	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Hierarchy is the three-level data-cache stack of the x86 baseline.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	L3 *Cache
}

// TableIL1 returns the paper's L1 data cache configuration:
// 32 KB, 8-way, 2-cycle, 64 B lines, stride prefetch, MSHR 10/10/10.
func TableIL1() Config {
	return Config{
		Name: "l1d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 2,
		MSHRRead: 10, MSHRWrite: 10, MSHREvict: 10,
		Prefetch: PrefetchStride, PrefetchDegree: 2,
	}
}

// TableIL2 returns the paper's private L2 configuration:
// 256 KB, 8-way, 4-cycle, stream prefetch, MSHR 20/20/10.
func TableIL2() Config {
	return Config{
		Name: "l2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 4,
		MSHRRead: 20, MSHRWrite: 20, MSHREvict: 10,
		Prefetch: PrefetchStream, PrefetchDegree: 4,
	}
}

// TableIL3 returns one bank's share of the paper's shared L3: the paper
// lists 2.5 MB per bank; we round to 2 MB so the set count stays a power
// of two (2.5 MB/16-way would need 2560 sets). 16-way, 6-cycle, MSHR
// 64/64/64, inclusive.
//
// The scan workloads stream far beyond any L3 capacity, so modelling the
// single active core's bank at 2 MB instead of 2.5 MB changes nothing
// observable in the paper's experiments.
func TableIL3() Config {
	return Config{
		Name: "l3", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, Latency: 6,
		MSHRRead: 64, MSHRWrite: 64, MSHREvict: 64,
		Prefetch: PrefetchNone,
	}
}

// NewHierarchy wires L1 → L2 → L3 → memory and registers the inclusive
// back-invalidation chain.
func NewHierarchy(engine *sim.Engine, l1, l2, l3 Config, memory mem.Port, reg *stats.Registry) (*Hierarchy, error) {
	cl3, err := New(engine, l3, memory, reg)
	if err != nil {
		return nil, err
	}
	cl2, err := New(engine, l2, cl3, reg)
	if err != nil {
		return nil, err
	}
	cl1, err := New(engine, l1, cl2, reg)
	if err != nil {
		return nil, err
	}
	cl3.SetChildren(cl2)
	cl2.SetChildren(cl1)
	return &Hierarchy{L1: cl1, L2: cl2, L3: cl3}, nil
}

// Reset empties all three levels (see Cache.Reset).
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.L3.Reset()
}

// Access enters the hierarchy at L1.
func (h *Hierarchy) Access(req *mem.Request) bool { return h.L1.Access(req) }

var _ mem.Port = (*Hierarchy)(nil)
