// Package harness defines the paper's experiments: one runner per panel
// of Figure 3 (the paper's only results figure) plus the Table I
// configuration dump, producing the same rows/series the paper reports —
// execution time normalised to the x86 baseline, and DRAM energy for the
// best configurations.
//
// Each figure is a declarative grid (or explicit cell list) executed by
// the internal/sweep worker-pool engine; the harness owns only the
// figure definitions and their table rendering. The single-run
// Config/Result machinery lives in internal/sweep and is re-exported
// here for the public API.
package harness

import (
	"fmt"
	"strings"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// Config parameterises a harness run (re-export of the sweep engine's
// run configuration: tuples, seed, machine and energy overrides).
type Config = sweep.Config

// Result is the outcome of one simulated plan (re-export).
type Result = sweep.Result

// Default returns the standard harness configuration.
func Default() Config { return sweep.Default() }

// Table renders a result series as an aligned text table with speedups
// against the first row flagged as baseline.
type Table struct {
	Title    string
	Baseline uint64 // cycles of the normalisation baseline
	Rows     []Result
	Notes    []string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-40s %14s %10s %14s\n", "configuration", "cycles", "vs x86", "DRAM energy pJ")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-40s %14d %9.2fx %14.0f\n",
			r.Plan.String(), r.Cycles, r.Speedup(t.Baseline), r.Energy.DRAMPJ())
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

var opSizesCube = []uint32{16, 32, 64, 128, 256}
var unrolls = []int{1, 2, 8, 16, 32}

// runTable executes cells through the sweep engine and wraps them as a
// figure table normalised to the best x86 row.
func runTable(c Config, title string, cells []sweep.Cell, notes ...string) (*Table, error) {
	rs, err := sweep.RunCells(c, cells, sweep.Options{})
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:    title,
		Baseline: rs.BestCycles(query.X86),
		Rows:     rs.Results(),
		Notes:    notes,
	}, nil
}

// opSizeGrid is the Figure 3a/3b sweep: x86, HMC and HIVE across every
// operation size, one grid — SkipInvalid trims x86 to its AVX-512
// ≤ 64 B envelope, exactly the per-architecture ranges the paper plots.
func opSizeGrid(c Config, strat query.Strategy) sweep.Grid {
	return sweep.Grid{
		Archs:       []query.Arch{query.X86, query.HMC, query.HIVE},
		Strategies:  []query.Strategy{strat},
		OpSizes:     opSizesCube,
		Unrolls:     []int{1},
		Tuples:      []int{c.Tuples},
		Seeds:       []uint64{c.Seed},
		SkipInvalid: true,
	}
}

// Fig3a reproduces "Tuple-at-a-time execution varying operation size":
// x86 (16..64 B), HMC and HIVE (16..256 B) on the NSM layout, unroll 1.
func Fig3a(c Config) (*Table, error) {
	cells, err := FigureCells(c, "3a")
	if err != nil {
		return nil, err
	}
	return runTable(c, "Figure 3a — tuple-at-a-time (NSM) vs operation size", cells,
		"paper shape: HMC/HIVE small ops lose badly; HMC-256B beats x86; HIVE-256B near x86")
}

// Fig3b reproduces "Column-at-a-time execution varying operation size":
// same sweep on the DSM layout, unroll 1 (HIVE with per-column bitmask
// round trips through the processor).
func Fig3b(c Config) (*Table, error) {
	cells, err := FigureCells(c, "3b")
	if err != nil {
		return nil, err
	}
	return runTable(c, "Figure 3b — column-at-a-time (DSM) vs operation size", cells,
		"paper shape: HMC-256B ≈4.4x over x86; HIVE-256B ≈2x slower (bitmask round trips)")
}

// Fig3c reproduces "Column-at-a-time execution varying loop unrolling
// depth": 256 B cube ops (64 B for x86), unroll 1..32 (x86 capped at 8,
// by SkipInvalid). Both the per-column HIVE plan and the fused full-scan
// variant are reported; the fused one is HIVE's best case (Figure 3d).
func Fig3c(c Config) (*Table, error) {
	cells, err := FigureCells(c, "3c")
	if err != nil {
		return nil, err
	}
	return runTable(c, "Figure 3c — column-at-a-time (DSM) vs unroll depth", cells,
		"paper shape: unrolling lifts HIVE past HMC (7.57x vs 5.15x at 32x)")
}

// BestPlans returns the per-architecture best configurations compared in
// Figure 3d (query.BestPlan of every backend).
func BestPlans(q db.Q06) map[query.Arch]query.Plan {
	plans := map[query.Arch]query.Plan{}
	for _, b := range query.Backends() {
		plans[b.Arch()] = query.BestPlan(b.Arch(), q)
	}
	return plans
}

// Fig3d reproduces "Best cases of each architecture compared to HIPE":
// speedup over x86 and DRAM energy of each architecture's best
// configuration.
func Fig3d(c Config) (*Table, error) {
	cells, err := FigureCells(c, "3d")
	if err != nil {
		return nil, err
	}
	t, err := runTable(c, "Figure 3d — best case of each architecture", cells)
	if err != nil {
		return nil, err
	}
	hive := t.Rows[2]
	hipe := t.Rows[3]
	t.Notes = append(t.Notes,
		"paper: HMC 5.15x, HIVE 7.55x, HIPE 6.46x vs x86; HIPE ~15% behind HIVE",
		fmt.Sprintf("HIPE DRAM energy vs HIVE: %.1f%% (paper: ~4%% lower; mask traffic + %d squashed loads)",
			100*(1-hipe.Energy.DRAMPJ()/hive.Energy.DRAMPJ()), hipe.Squashed),
	)
	return t, nil
}

// FigureCells expands one panel's cell set without running it — the
// exact workload Figure(name) simulates, for callers that want to drive
// it through the sweep engine with their own Options (e.g. the
// repository benchmark's figures workload).
func FigureCells(c Config, name string) ([]sweep.Cell, error) {
	switch name {
	case "3a":
		return opSizeGrid(c, query.TupleAtATime).Expand()
	case "3b":
		return opSizeGrid(c, query.ColumnAtATime).Expand()
	case "3c":
		column := []query.Strategy{query.ColumnAtATime}
		workTuples, workSeeds := []int{c.Tuples}, []uint64{c.Seed}
		return sweep.ExpandAll(
			sweep.Grid{Archs: []query.Arch{query.X86}, Strategies: column,
				OpSizes: []uint32{64}, Unrolls: unrolls,
				Tuples: workTuples, Seeds: workSeeds, SkipInvalid: true},
			sweep.Grid{Archs: []query.Arch{query.HMC}, Strategies: column,
				OpSizes: []uint32{256}, Unrolls: unrolls,
				Tuples: workTuples, Seeds: workSeeds},
			sweep.Grid{Archs: []query.Arch{query.HIVE}, Strategies: column,
				Fused: []bool{false, true}, OpSizes: []uint32{256}, Unrolls: unrolls,
				Tuples: workTuples, Seeds: workSeeds},
		)
	case "3d":
		plans := BestPlans(db.DefaultQ06())
		return sweep.PlanCells(c.Tuples, c.Seed,
			plans[query.X86], plans[query.HMC], plans[query.HIVE], plans[query.HIPE]), nil
	default:
		return nil, fmt.Errorf("harness: unknown figure %q (have 3a..3d)", name)
	}
}

// Figure runs one panel by name ("3a".."3d").
func Figure(c Config, name string) (*Table, error) {
	switch name {
	case "3a":
		return Fig3a(c)
	case "3b":
		return Fig3b(c)
	case "3c":
		return Fig3c(c)
	case "3d":
		return Fig3d(c)
	default:
		return nil, fmt.Errorf("harness: unknown figure %q (have 3a..3d)", name)
	}
}

// Figures lists the reproducible panels.
func Figures() []string { return []string{"3a", "3b", "3c", "3d"} }
