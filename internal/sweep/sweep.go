// Package sweep is the experiment-execution engine of the reproduction:
// the single-plan runner (Config.Run — take a machine, lay out the
// table, generate the µop stream, simulate, verify, audit energy) and a
// worker-pool fan-out that executes whole parameter sweeps — declarative
// cross-products over architecture, scan strategy, operation size,
// unroll depth, Query 06 selectivity knobs, tuple counts, seeds and
// table clustering — across all cores.
//
// Sweeps are deterministic by construction: each simulation is
// single-threaded and bit-reproducible (see internal/sim), cells are
// indexed by their position in the expanded grid, and results are
// aggregated by index. A sweep therefore produces byte-identical
// exported results regardless of the worker count; only wall-clock time
// changes. The harness's Figure runners are thin grids over this
// engine, and cmd/hipe-sweep exposes it on the command line.
package sweep

import (
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/query"
)

// Config parameterises experiment runs.
type Config struct {
	// Tuples is the lineitem row count (multiple of 64). The paper uses
	// TPC-H SF1 (~6M rows); the default is large enough for steady-state
	// behaviour while keeping runs interactive.
	Tuples int
	// Seed drives the deterministic generator.
	Seed uint64
	// Machine overrides the default Table I machine when non-nil.
	Machine *machine.Config
	// Energy overrides the default energy constants when non-nil.
	Energy *energy.Model
}

// Default returns the standard experiment configuration.
func Default() Config {
	return Config{Tuples: 16384, Seed: 42}
}

func (c Config) machineConfig() machine.Config {
	if c.Machine != nil {
		return *c.Machine
	}
	return machine.Default()
}

// machineFor is the machine a run over tables of at most rows rows
// draws: an explicit Machine untouched, else the default with its
// image sized to the layouts (db.ImageBytesFor), smaller or larger
// than the default's; machine.New refuses one past the HMC's capacity.
// Layouts bump-allocate from address zero, so the image size changes no
// address and no timing — only how many bytes each machine build and
// reset touches.
func (c Config) machineFor(rows int) machine.Config {
	mc := c.machineConfig()
	if c.Machine == nil {
		mc.ImageBytes = db.ImageBytesFor(rows)
	}
	return mc
}

func (c Config) energyModel() energy.Model {
	if c.Energy != nil {
		return *c.Energy
	}
	return energy.Default()
}

// Result is the outcome of one simulated plan.
type Result struct {
	Plan    query.Plan
	Cycles  uint64
	Energy  energy.Breakdown
	Checked int
	// Squashed reports HIPE predication squashes (0 elsewhere).
	Squashed uint64
	// SquashedDRAMBytes reports DRAM reads avoided by predication.
	SquashedDRAMBytes uint64
	// Groups holds the per-group aggregates of a Q01 aggregation plan
	// in db.GroupID order, verified against the reference evaluator
	// (nil — and JSON-omitted — for selection scans).
	Groups []db.GroupAgg `json:",omitempty"`
}

// Speedup reports baseCycles / this result's cycles.
func (r Result) Speedup(baseCycles uint64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(r.Cycles)
}

// Run executes one plan on a machine from the process-wide pool
// (machine.Get) in its post-New state, verifies the computed bitmask
// against the reference evaluator, and audits energy: one exact leg
// over the whole table. The machine goes back to the pool before Run
// returns, and the Result references nothing of it.
func (c Config) Run(tab *db.Table, p query.Plan) (Result, error) {
	out, err := (&Leg{Config: c}).Run(tab, p)
	return out.Result, err
}

// runOn executes one plan on a machine in its post-New (fresh or Reset)
// state. The machine is left dirty; callers Reset it (machine.Put does)
// before the next run.
func (c Config) runOn(m *machine.Machine, tab *db.Table, p query.Plan) (Result, error) {
	w, err := query.Prepare(m, tab, p)
	if err != nil {
		return Result{}, err
	}
	cycles := uint64(m.Run(w.Stream()))
	if err := w.Verify(); err != nil {
		return Result{}, err
	}
	mc := c.machineConfig()
	breakdown := c.energyModel().Audit(m.Registry, cycles,
		int(mc.Geometry.Vaults), uint64(mc.DRAM.ClockRatio))
	scope := "hipe"
	if p.Arch == query.HIVE {
		scope = "hive"
	}
	return Result{
		Plan:              p,
		Cycles:            cycles,
		Energy:            breakdown,
		Checked:           w.Checked(),
		Squashed:          m.Registry.Scope(scope).Get("squashed"),
		SquashedDRAMBytes: m.Registry.Scope(scope).Get("squashed_dram_bytes"),
		Groups:            w.GroupResults(),
	}, nil
}
