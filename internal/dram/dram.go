// Package dram models the DRAM layers of the Hybrid Memory Cube: 32
// vaults, each with its own controller, 8 banks, a 256 B row buffer and a
// closed-page policy, using the Table I timings of the paper
// (CAS-RP-RCD-RAS-CWD = 9-9-9-24-7 DRAM cycles at 166 MHz under a 2 GHz
// core clock).
//
// The model is a resource-reservation timing model: each request, on
// arrival at its vault, reserves its bank (activation + restore +
// precharge) and the vault's TSV data bus (burst), respecting FIFO
// arrival order. This reproduces bank-level parallelism, closed-page
// activation cost, and data-bus serialisation without simulating every
// DRAM command edge, which is sufficient because the paper's results
// depend on row-buffer utilisation and vault parallelism, not on command
// bus scheduling minutiae.
package dram

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/mem"
	"github.com/hipe-sim/hipe/internal/sim"
	"github.com/hipe-sim/hipe/internal/stats"
)

// Policy selects the row-buffer management policy.
type Policy uint8

const (
	// ClosedPage precharges after every access (the paper's setting).
	ClosedPage Policy = iota
	// OpenPage leaves the row open and skips activation on row hits
	// (implemented for the ablation study).
	OpenPage
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == OpenPage {
		return "open-page"
	}
	return "closed-page"
}

// Timing holds DRAM timing parameters. DRAM-cycle fields are converted to
// CPU cycles through ClockRatio.
type Timing struct {
	CAS uint32 // column access strobe latency, DRAM cycles
	RP  uint32 // row precharge, DRAM cycles
	RCD uint32 // RAS-to-CAS (activation), DRAM cycles
	RAS uint32 // row active minimum, DRAM cycles
	CWD uint32 // column write delay, DRAM cycles

	// ClockRatio is CPU cycles per DRAM cycle (2 GHz / 166 MHz ≈ 12).
	ClockRatio uint32
	// BurstBytes is bytes moved per data-bus beat (8 B).
	BurstBytes uint32
	// BeatCycles is CPU cycles per data-bus beat (2, the paper's 2:1
	// core-to-bus frequency ratio).
	BeatCycles uint32

	Policy Policy

	// RefreshInterval, if non-zero, blocks a vault's banks for
	// RefreshCycles every RefreshInterval CPU cycles (lazy model).
	RefreshInterval uint64
	RefreshCycles   uint32
}

// HMC21Timing returns the paper's Table I timing at a 2 GHz core.
func HMC21Timing() Timing {
	return Timing{
		CAS: 9, RP: 9, RCD: 9, RAS: 24, CWD: 7,
		ClockRatio: 12,
		BurstBytes: 8,
		BeatCycles: 2,
		Policy:     ClosedPage,
		// 64 ms / 8192 refresh commands ≈ 7.8 µs tREFI → 15600 CPU
		// cycles; tRFC ≈ 160 ns → 320 CPU cycles.
		RefreshInterval: 15600,
		RefreshCycles:   320,
	}
}

// Validate rejects degenerate timing configurations.
func (t Timing) Validate() error {
	if t.ClockRatio == 0 || t.BurstBytes == 0 || t.BeatCycles == 0 {
		return fmt.Errorf("dram: zero ratio/burst/beat in %+v", t)
	}
	if t.RefreshInterval != 0 && uint64(t.RefreshCycles) >= t.RefreshInterval {
		return fmt.Errorf("dram: refresh busy %d >= interval %d", t.RefreshCycles, t.RefreshInterval)
	}
	return nil
}

func (t Timing) cpu(dramCycles uint32) sim.Cycle {
	return sim.Cycle(dramCycles * t.ClockRatio)
}

// burst returns the CPU cycles needed to move size bytes over the vault
// data bus (rounded up to whole beats; zero-size moves one beat, which
// covers command-only artifacts defensively).
func (t Timing) burst(size uint32) sim.Cycle {
	beats := (size + t.BurstBytes - 1) / t.BurstBytes
	if beats == 0 {
		beats = 1
	}
	return sim.Cycle(beats * t.BeatCycles)
}

// AccessLatency reports the unloaded latency of one closed-page access of
// the given size (activation + column access + data burst). Useful for
// calibration tests and documentation.
func (t Timing) AccessLatency(size uint32, kind mem.Kind) sim.Cycle {
	col := t.CAS
	if kind == mem.Write {
		col = t.CWD
	}
	return t.cpu(t.RCD) + t.cpu(col) + t.burst(size)
}

type bank struct {
	// freeAt is when the bank can accept its next activation.
	freeAt sim.Cycle
	// openRow is the currently open row (OpenPage only); ^0 when closed.
	openRow uint64
}

// Vault is one HMC vault: 8 banks behind a shared TSV data bus.
type Vault struct {
	id     uint32
	geom   mem.Geometry
	timing Timing
	engine *sim.Engine

	banks     []bank
	busFreeAt sim.Cycle
	// arrivalFree serialises controller occupancy: one request decoded
	// per controller slot to preserve FIFO arbitration.
	arrivalFree sim.Cycle

	nextRefresh uint64

	acts         *stats.Counter
	reads        *stats.Counter
	writes       *stats.Counter
	rowHits      *stats.Counter
	bytesRead    *stats.Counter
	bytesWritten *stats.Counter
	refreshes    *stats.Counter
}

// HMC is the full DRAM assembly: all vaults of one cube.
type HMC struct {
	Geom   mem.Geometry
	Timing Timing
	vaults []*Vault
	engine *sim.Engine
}

// New builds an HMC DRAM model. The registry receives one scope per vault
// named "dram.vaultNN".
func New(engine *sim.Engine, geom mem.Geometry, timing Timing, reg *stats.Registry) (*HMC, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	h := &HMC{Geom: geom, Timing: timing, engine: engine}
	for v := uint32(0); v < geom.Vaults; v++ {
		sc := reg.Scope(fmt.Sprintf("dram.vault%02d", v))
		vault := &Vault{
			id:           v,
			geom:         geom,
			timing:       timing,
			engine:       engine,
			banks:        make([]bank, geom.Banks),
			nextRefresh:  timing.RefreshInterval,
			acts:         sc.Counter("activations"),
			reads:        sc.Counter("reads"),
			writes:       sc.Counter("writes"),
			rowHits:      sc.Counter("row_hits"),
			bytesRead:    sc.Counter("bytes_read"),
			bytesWritten: sc.Counter("bytes_written"),
			refreshes:    sc.Counter("refreshes"),
		}
		for b := range vault.banks {
			vault.banks[b].openRow = ^uint64(0)
		}
		h.vaults = append(h.vaults, vault)
	}
	return h, nil
}

// Reset returns every vault to its post-New state: banks closed and
// free, buses idle, refresh schedule restarted. Counters are zeroed by
// the registry reset the machine performs alongside.
func (h *HMC) Reset() {
	for _, v := range h.vaults {
		for b := range v.banks {
			v.banks[b] = bank{openRow: ^uint64(0)}
		}
		v.busFreeAt = 0
		v.arrivalFree = 0
		v.nextRefresh = v.timing.RefreshInterval
	}
}

// Vault returns vault i.
func (h *HMC) Vault(i uint32) *Vault { return h.vaults[i] }

// NumVaults reports the vault count.
func (h *HMC) NumVaults() uint32 { return uint32(len(h.vaults)) }

// Access routes a row-contained request to its vault. It panics if the
// request crosses a row boundary: callers must walk a larger access in
// Geometry.RowSpan pieces. Access always accepts; queueing delay is
// modelled by resource reservation inside the vault, and Done is always
// scheduled, never called inside Access.
func (h *HMC) Access(req *mem.Request) bool {
	if req.Size == 0 {
		panic("dram: zero-size request")
	}
	last := req.Addr + mem.Addr(req.Size-1)
	if h.Geom.RowBase(req.Addr) != h.Geom.RowBase(last) {
		panic(fmt.Sprintf("dram: request %x+%d crosses a row boundary", req.Addr, req.Size))
	}
	loc := h.Geom.Decompose(req.Addr)
	h.vaults[loc.Vault].access(req, loc)
	return true
}

var _ mem.Port = (*HMC)(nil)

// access reserves the bank and bus for one request and schedules Done.
func (v *Vault) access(req *mem.Request, loc mem.Location) {
	now := v.engine.Now()
	t := &v.timing

	// Controller slot: one request decode per CPU cycle keeps FIFO order.
	start := now
	if v.arrivalFree > start {
		start = v.arrivalFree
	}
	v.arrivalFree = start + 1

	// Lazy refresh: consume every refresh due before this access; only a
	// refresh whose busy window overlaps the access pushes it out (start
	// must never move backward).
	if t.RefreshInterval != 0 {
		for uint64(start) >= v.nextRefresh {
			refEnd := v.nextRefresh + uint64(t.RefreshCycles)
			if uint64(start) < refEnd {
				start = sim.Cycle(refEnd)
			}
			v.nextRefresh += t.RefreshInterval
			v.refreshes.Inc()
		}
	}

	b := &v.banks[loc.Bank]
	if b.freeAt > start {
		start = b.freeAt
	}

	// Activation unless the row is already open under OpenPage.
	var colReady sim.Cycle
	rowHit := t.Policy == OpenPage && b.openRow == loc.Row
	if rowHit {
		v.rowHits.Inc()
		colReady = start
	} else {
		v.acts.Inc()
		colReady = start + t.cpu(t.RCD)
	}

	colLat := t.CAS
	if req.Kind == mem.Write {
		colLat = t.CWD
	}
	dataReady := colReady + t.cpu(colLat)

	// TSV data bus: serialise bursts within the vault.
	burstStart := dataReady
	if v.busFreeAt > burstStart {
		burstStart = v.busFreeAt
	}
	done := burstStart + t.burst(req.Size)
	v.busFreeAt = done

	// Bank recovery: respect tRAS from activation, then precharge under
	// closed page. Under open page the bank stays open and is free once
	// the burst drains.
	switch t.Policy {
	case ClosedPage:
		rasDone := start + t.cpu(t.RAS)
		if !rowHit && rasDone > done {
			b.freeAt = rasDone + t.cpu(t.RP)
		} else {
			b.freeAt = done + t.cpu(t.RP)
		}
		b.openRow = ^uint64(0)
	case OpenPage:
		b.freeAt = done
		b.openRow = loc.Row
	}

	if req.Kind == mem.Read {
		v.reads.Inc()
		v.bytesRead.Add(uint64(req.Size))
	} else {
		v.writes.Inc()
		v.bytesWritten.Add(uint64(req.Size))
	}

	if req.Done != nil {
		// ScheduleCall stores the callback without a wrapper closure:
		// this is the hottest event in the simulator (one per DRAM
		// access) and must not allocate.
		v.engine.ScheduleCall(done, req.Done)
	}
}

// ID reports the vault index.
func (v *Vault) ID() uint32 { return v.id }
