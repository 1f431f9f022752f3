// Package machine assembles the full simulated system of the paper: one
// active out-of-order core with its three-level cache hierarchy, the four
// SerDes links, the 32-vault HMC DRAM, and the three offload engines
// (HMC baseline, HIVE, HIPE) sharing the logic layer.
//
// Every experiment in the reproduction builds a Machine, lays the
// database into its physical image, generates a µop stream with the query
// code generators, and runs the core to completion.
package machine

import (
	"fmt"
	"sync/atomic"

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

// Config selects the sizes and parameters of every component. The zero
// value is not usable; start from Default.
type Config struct {
	// ImageBytes is the size of the functional backing image (the
	// simulated physical memory actually touched by experiments). It can
	// be far smaller than the HMC's 8 GiB address space.
	ImageBytes uint64

	Geometry mem.Geometry
	DRAM     dram.Timing
	Links    link.Config
	CPU      cpu.Config
	L1, L2   cache.Config
	L3       cache.Config
	HMC      hmc.Config
	HIVE     core.Config
	HIPE     core.Config
}

// Default returns the paper's Table I configuration.
func Default() Config {
	return Config{
		ImageBytes: 64 << 20,
		Geometry:   mem.HMC21(),
		DRAM:       dram.HMC21Timing(),
		Links:      link.Default(),
		CPU:        cpu.TableI("cpu0"),
		L1:         cache.TableIL1(),
		L2:         cache.TableIL2(),
		L3:         cache.TableIL3(),
		HMC:        hmc.Default(),
		HIVE:       core.DefaultHIVE(),
		HIPE:       core.DefaultHIPE(),
	}
}

// Machine is one fully wired system instance.
type Machine struct {
	Engine   *sim.Engine
	Registry *stats.Registry
	Image    []byte

	DRAM   *dram.HMC
	Links  *link.Controller
	Caches *cache.Hierarchy
	CPU    *cpu.Core
	HMC    *hmc.Engine
	HIVE   *core.Engine
	HIPE   *core.Engine

	// UMem is the uncacheable CPU path to DRAM (through the links).
	UMem mem.Port

	// Blocks holds the block buffers of the last µop stream to finish
	// on this machine, lent to the next stream that starts. A stream's
	// buffers grow until they fit its largest block, and a short run,
	// such as a serving shard's few blocks, would otherwise pay that
	// growth every time. Reset keeps them.
	Blocks Blocks

	// cfg is the configuration the machine was built from, the pool's
	// key; idle is set while the machine sits in the pool.
	cfg  Config
	idle atomic.Bool
}

// Blocks is a µop stream's block storage: the block's µops and its
// offload instructions.
type Blocks struct {
	Ops   []isa.MicroOp
	Insts []isa.OffloadInst
}

// offloadMux routes offload instructions to the engine their target
// names.
type offloadMux struct {
	hmc  *hmc.Engine
	hive *core.Engine
	hipe *core.Engine
}

// Submit implements cpu.OffloadPort.
func (m *offloadMux) Submit(inst *isa.OffloadInst, done func(now sim.Cycle)) bool {
	switch inst.Target {
	case isa.TargetHMC:
		return m.hmc.Submit(inst, done)
	case isa.TargetHIVE:
		return m.hive.Submit(inst, done)
	case isa.TargetHIPE:
		return m.hipe.Submit(inst, done)
	default:
		panic(fmt.Sprintf("machine: unroutable offload target %s", inst.Target))
	}
}

// CreditRefusals credits HMC, the only engine whose window refuses. The
// mux carries no refusal version: HMC frees a window slot only as it
// delivers a response, which calls the core back in the same event.
func (m *offloadMux) CreditRefusals(n uint64) { m.hmc.CreditRefusals(n) }

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.ImageBytes == 0 {
		return nil, fmt.Errorf("machine: zero image size")
	}
	if cfg.ImageBytes > cfg.Geometry.Total {
		return nil, fmt.Errorf("machine: image %d exceeds HMC capacity %d", cfg.ImageBytes, cfg.Geometry.Total)
	}
	engine := sim.NewEngine()
	reg := stats.NewRegistry()
	image := make([]byte, cfg.ImageBytes)

	d, err := dram.New(engine, cfg.Geometry, cfg.DRAM, reg)
	if err != nil {
		return nil, err
	}
	links, err := link.New(engine, cfg.Links, cfg.Geometry.Vaults, reg)
	if err != nil {
		return nil, err
	}
	umem := &link.MemPort{Ctl: links, Geom: cfg.Geometry, Inner: d}
	caches, err := cache.NewHierarchy(engine, cfg.L1, cfg.L2, cfg.L3, umem, reg)
	if err != nil {
		return nil, err
	}
	hmcEng, err := hmc.New(engine, cfg.HMC, links, d, image, reg)
	if err != nil {
		return nil, err
	}
	hiveEng, err := core.New(engine, cfg.HIVE, links, d, image, reg)
	if err != nil {
		return nil, err
	}
	hipeEng, err := core.New(engine, cfg.HIPE, links, d, image, reg)
	if err != nil {
		return nil, err
	}
	mux := &offloadMux{hmc: hmcEng, hive: hiveEng, hipe: hipeEng}
	// The core's requests meet the L1 only: it is the level whose
	// refusals the core credits and whose refusal version it watches.
	c, err := cpu.New(engine, cfg.CPU, caches.L1, umem, mux, reg)
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:      cfg,
		Engine:   engine,
		Registry: reg,
		Image:    image,
		DRAM:     d,
		Links:    links,
		Caches:   caches,
		CPU:      c,
		HMC:      hmcEng,
		HIVE:     hiveEng,
		HIPE:     hipeEng,
		UMem:     umem,
	}, nil
}

// SetChecker installs the checker every engine reports checked
// instruction results to for the current run (a prepared workload
// installs itself); Reset clears it.
func (m *Machine) SetChecker(c isa.Checker) {
	m.HMC.SetChecker(c)
	m.HIVE.SetChecker(c)
	m.HIPE.SetChecker(c)
}

// Run executes a µop stream to completion and returns the consumed
// cycles.
func (m *Machine) Run(stream cpu.Stream) sim.Cycle {
	m.CPU.Start(stream, nil)
	m.Engine.Run()
	return m.CPU.Cycles()
}

// Reset returns the machine to its post-New state — clock at zero, no
// pending events, caches cold, predictor untrained, image zeroed,
// counters at zero, no checker installed — while keeping every
// allocation (event queue capacity, pooled requests, cache arrays, the
// image itself). A reset machine produces bit-identical results to a
// freshly constructed one, which is what lets every exact run draw its
// machine from the process-wide pool (Get, Put) instead of rebuilding
// the world (verified by TestResetMatchesFreshMachine and the
// worker-count and warm-process determinism tests).
func (m *Machine) Reset() {
	// The engine resets first: dropping every pending event is what
	// makes it safe for the components to reclaim their in-flight state.
	m.Engine.Reset()
	m.Registry.Reset()
	clear(m.Image)
	m.DRAM.Reset()
	m.Links.Reset()
	m.Caches.Reset()
	m.CPU.Reset()
	m.HMC.Reset()
	m.HIVE.Reset()
	m.HIPE.Reset()
	m.SetChecker(nil)
}
