// Grid declaration and expansion: a sweep is the cross-product of every
// populated axis, expanded in a fixed nesting order so cell indices are
// stable across runs, worker counts and machines.
package sweep

import (
	"fmt"

	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/query"
)

// Cell is one fully-instantiated experiment: a plan plus the workload it
// runs over. Cells are the unit of work the engine schedules.
type Cell struct {
	Plan   query.Plan
	Tuples int
	Seed   uint64
	// Clustered selects the date-clustered (append-ordered) table; see
	// db.GenerateClustered.
	Clustered bool
	// NoiseDays is the clustering noise (only meaningful when Clustered).
	NoiseDays int32
}

// workload identifies the table + query group a cell belongs to. Cells
// sharing a workload share a generated table and a speedup baseline.
type workload struct {
	Tuples    int
	Seed      uint64
	Clustered bool
	NoiseDays int32
	Kind      query.QueryKind
	Q         db.Q06
	Q1        db.Q01
}

func (c Cell) workload() workload {
	return workload{Tuples: c.Tuples, Seed: c.Seed,
		Clustered: c.Clustered, NoiseDays: c.NoiseDays,
		Kind: c.Plan.Kind, Q: c.Plan.Q, Q1: c.Plan.Q1}
}

// String renders a cell identifier like
// "hipe/column-at-a-time/256B/32x n=16384 seed=42".
func (c Cell) String() string {
	s := fmt.Sprintf("%s n=%d seed=%d", c.Plan, c.Tuples, c.Seed)
	if c.Clustered {
		s += fmt.Sprintf(" clustered(±%dd)", c.NoiseDays)
	}
	return s
}

// Grid declares a parameter sweep as the cross-product of its axes.
// Empty axes take the documented singleton default, so a zero Grid is
// one default HIPE cell. Expansion nests in a fixed order, outermost to
// innermost: Tuples, Seeds, Clustered, Queries, Archs, Strategies,
// Fused, Aggregate, OpSizes, Unrolls — i.e. the plan axes vary
// fastest, with unroll depth innermost, which is the row order the
// paper's figures use.
type Grid struct {
	// Archs are the architectures to sweep. Default: {HIPE}. The axis
	// may include query.ArchAuto: an auto cell keeps the grid's shape
	// axes and the engine routes it to the predicted-fastest backend
	// whose envelope admits that shape (the routing decision is
	// recorded in the cell result and the exports' routing columns).
	Archs []query.Arch
	// Strategies are the scan strategies. Default: {ColumnAtATime}.
	Strategies []query.Strategy
	// OpSizes are memory operation widths in bytes. Default: {256}.
	OpSizes []uint32
	// Unrolls are loop unrolling depths. Default: {32}.
	Unrolls []int
	// Fused sweeps HIVE's fused full-scan variant. Default: {false}.
	Fused []bool
	// Aggregate sweeps HIPE's in-memory Q06 aggregation extension.
	// Default: {false}.
	Aggregate []bool
	// Queries are the Q06 predicate variants (the selectivity knobs).
	// Default: {db.DefaultQ06()} when Q1Queries is also empty.
	Queries []db.Q06
	// Q1Queries are TPC-H Q01-style aggregation variants. The query
	// axis is the concatenation of Queries and Q1Queries, so one grid
	// can sweep selection and aggregation workloads side by side; cells
	// from this list carry Kind == Q1Agg.
	Q1Queries []db.Q01
	// Tuples are lineitem row counts (multiples of 64). When empty,
	// Run inherits the Config's Tuples; a bare Expand uses 16384.
	Tuples []int
	// Seeds drive the deterministic generator. When empty, Run
	// inherits the Config's Seed; a bare Expand uses 42.
	Seeds []uint64
	// Clustered sweeps the date-clustered table layout. Default: {false}.
	Clustered []bool
	// NoiseDays is the clustering noise applied to clustered cells
	// (scalar — it parameterises the layout, it is not a swept axis).
	// Zero means an exactly date-ordered table.
	NoiseDays int32
	// SkipInvalid drops cells whose plan fails query.Plan.Validate
	// (e.g. x86 at 128 B, HIPE tuple-at-a-time) instead of failing the
	// expansion. This is what lets one grid span architectures with
	// different evaluated envelopes, as the paper's figures do.
	SkipInvalid bool
}

// Defaults for empty grid axes.
var (
	defaultArchs      = []query.Arch{query.HIPE}
	defaultStrategies = []query.Strategy{query.ColumnAtATime}
	defaultOpSizes    = []uint32{256}
	defaultUnrolls    = []int{32}
	defaultBools      = []bool{false}
	defaultTuples     = []int{16384}
	defaultSeeds      = []uint64{42}
)

func orArchs(v []query.Arch, d []query.Arch) []query.Arch {
	if len(v) == 0 {
		return d
	}
	return v
}

// Size reports the number of cells the grid expands to before invalid
// plans are skipped.
func (g Grid) Size() int {
	n := 1
	for _, l := range []int{len(orInt(g.Tuples, defaultTuples)), len(orU64(g.Seeds, defaultSeeds)),
		len(orBool(g.Clustered, defaultBools)), max(len(g.Queries)+len(g.Q1Queries), 1),
		len(orArchs(g.Archs, defaultArchs)), max(len(g.Strategies), 1),
		len(orBool(g.Fused, defaultBools)), len(orBool(g.Aggregate, defaultBools)),
		len(orU32(g.OpSizes, defaultOpSizes)), len(orInt(g.Unrolls, defaultUnrolls))} {
		n *= l
	}
	return n
}

func orInt(v, d []int) []int {
	if len(v) == 0 {
		return d
	}
	return v
}
func orU32(v, d []uint32) []uint32 {
	if len(v) == 0 {
		return d
	}
	return v
}
func orU64(v, d []uint64) []uint64 {
	if len(v) == 0 {
		return d
	}
	return v
}
func orBool(v, d []bool) []bool {
	if len(v) == 0 {
		return d
	}
	return v
}

// Expand materialises the grid's cells in their deterministic order.
// Without SkipInvalid, any cell whose plan fails validation aborts the
// expansion with that cell's error.
func (g Grid) Expand() ([]Cell, error) {
	strategies := g.Strategies
	if len(strategies) == 0 {
		strategies = defaultStrategies
	}
	// The query axis spans the Q06 variants followed by the Q01
	// variants; a grid naming neither sweeps the default Q06.
	type queryVariant struct {
		kind query.QueryKind
		q    db.Q06
		q1   db.Q01
	}
	var queries []queryVariant
	for _, q := range g.Queries {
		queries = append(queries, queryVariant{kind: query.Q6Select, q: q})
	}
	for _, q1 := range g.Q1Queries {
		queries = append(queries, queryVariant{kind: query.Q1Agg, q1: q1})
	}
	if len(queries) == 0 {
		queries = []queryVariant{{kind: query.Q6Select, q: db.DefaultQ06()}}
	}
	var cells []Cell
	for _, n := range orInt(g.Tuples, defaultTuples) {
		if n <= 0 || n%64 != 0 {
			return nil, fmt.Errorf("sweep: tuple count %d is not a positive multiple of 64", n)
		}
		for _, seed := range orU64(g.Seeds, defaultSeeds) {
			for _, clustered := range orBool(g.Clustered, defaultBools) {
				for _, qv := range queries {
					for _, arch := range orArchs(g.Archs, defaultArchs) {
						for _, strat := range strategies {
							for _, fused := range orBool(g.Fused, defaultBools) {
								for _, agg := range orBool(g.Aggregate, defaultBools) {
									for _, op := range orU32(g.OpSizes, defaultOpSizes) {
										for _, u := range orInt(g.Unrolls, defaultUnrolls) {
											c := Cell{
												Plan: query.Plan{Arch: arch, Strategy: strat,
													OpSize: op, Unroll: u, Fused: fused,
													Aggregate: agg, Kind: qv.kind,
													Q: qv.q, Q1: qv.q1},
												Tuples: n, Seed: seed,
											}
											if clustered {
												c.Clustered = true
												c.NoiseDays = g.NoiseDays
											}
											// ValidateFor also applies the
											// table-dependent envelope (e.g.
											// Q01 accumulator-overflow bounds),
											// so SkipInvalid trims such cells
											// instead of aborting the run.
											if err := c.Plan.ValidateFor(n); err != nil {
												if g.SkipInvalid {
													continue
												}
												return nil, fmt.Errorf("sweep: cell %s: %w", c, err)
											}
											cells = append(cells, c)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: grid expands to no valid cells")
	}
	return cells, nil
}

// ExpandAll concatenates the expansions of several grids, in order —
// the shape of a figure whose per-architecture axes differ (e.g.
// Figure 3c sweeps unroll depth at 64 B on x86 but 256 B on the cubes).
func ExpandAll(grids ...Grid) ([]Cell, error) {
	var cells []Cell
	for i, g := range grids {
		c, err := g.Expand()
		if err != nil {
			return nil, fmt.Errorf("sweep: grid %d: %w", i, err)
		}
		cells = append(cells, c...)
	}
	return cells, nil
}

// PlanCells builds one cell per plan over a single workload — the shape
// of a "best configurations" comparison like Figure 3d.
func PlanCells(tuples int, seed uint64, plans ...query.Plan) []Cell {
	cells := make([]Cell, len(plans))
	for i, p := range plans {
		cells[i] = Cell{Plan: p, Tuples: tuples, Seed: seed}
	}
	return cells
}
