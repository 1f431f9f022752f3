// The cell driver: every cell is max(1, CellShards) (cell, shard)
// tasks — a whole-table cell is the one-shard case — fanned out over one
// worker pool (ForEach). Each task is one leg (leg.go), each cell's
// partials fold in shard order when its last task finishes, and results
// land in an index-ordered ResultSet, so the outcome is independent of
// scheduling.
package sweep

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
)

// Options tune a sweep run.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// The worker count never changes results, only wall-clock time.
	Workers int
	// OnCell, when non-nil, is called once per cell when the cell's
	// last task finishes — failed cells included, with a zero Result —
	// with the number of cells finished so far and the grid total.
	// Calls are serialised but arrive in completion order, not index
	// order — use it for progress reporting, not aggregation.
	OnCell func(completed, total int, r CellResult)
	// Counters enables machine-counter capture: each cell's machine
	// registry (plus its event engine's scheduler accounting) is
	// snapshotted into CellResult.Counters after the run, before the
	// machine is reused. Off by default; when off no capture code runs
	// and exports are byte-identical to their pre-observability form.
	// Counters need real simulation: estimate mode refuses them.
	Counters bool
	// Exec selects the execution mode. ExecExact (the zero value) runs
	// full machine simulations; ExecEstimate prices each cell with the
	// analytic cost model instead — no machines are built — and marks
	// every result with CellResult.Mode. Exact-mode results and exports
	// are byte-identical to runs made before this knob existed.
	Exec ExecMode
	// CellShards is the number of contiguous shards (db.Partition)
	// each cell's table is cut into. Every shard is one leg on the
	// worker pool — its own machine in exact mode, its own cost-model
	// pricing in estimate mode — and a cell's partials fold in shard
	// order (Fold: cycles as the critical path, energy and counter
	// totals summed), so results are byte-identical at any worker count.
	// 0 or 1 runs each cell as one whole-table task.
	CellShards int
}

// validate rejects option combinations the engine refuses to run:
// estimate mode builds no machines, so it cannot capture machine
// counters.
func (o Options) validate() error {
	switch o.Exec {
	case ExecExact:
	case ExecEstimate:
		if o.Counters {
			return fmt.Errorf("sweep: estimate mode cannot capture machine counters (µop-level counters need exact simulation)")
		}
	default:
		return fmt.Errorf("sweep: unknown exec mode %d", int(o.Exec))
	}
	if o.CellShards < 0 {
		return fmt.Errorf("sweep: negative cell shard count %d", o.CellShards)
	}
	return nil
}

// EffectiveWorkers resolves the worker-pool size these options produce.
func (o Options) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellResult is one aggregated sweep outcome.
type CellResult struct {
	// Index is the cell's position in the expanded grid.
	Index int
	// Cell is the experiment that ran.
	Cell Cell
	// Result is the simulation outcome.
	Result Result
	// Selectivity is the fraction of the cell's table matching its
	// predicate (computed once per workload group).
	Selectivity float64
	// Speedup is the cell's speedup against its workload group's
	// baseline: the best x86 cycles over the same table and predicate,
	// or the group's best cycles when the group has no x86 cell.
	Speedup float64
	// Routing records the adaptive planner's decision for an auto-arch
	// cell: the candidates were the cell's shape with each backend's
	// architecture substituted (trimmed to fitting envelopes), and
	// Result.Plan is the chosen backend's plan. Nil —
	// and JSON-omitted — for fixed-architecture cells.
	Routing *cost.Decision `json:",omitempty"`
	// Counters is the cell's machine-counter snapshot when
	// Options.Counters was set; nil — and JSON-omitted — otherwise, so
	// counter-off exports are unchanged.
	Counters *obs.Counters `json:",omitempty"`
	// Mode records the execution mode that produced Result: ExecEstimate
	// cells carry model-predicted cycles and energy and no answers
	// (Checked 0, no Groups). ExecExact (the zero value) is JSON-omitted,
	// so exact exports are byte-identical to their pre-mode form.
	Mode ExecMode `json:",omitempty"`
	// Shards records the intra-cell shard count when the cell ran as
	// parallel shard legs (Options.CellShards > 1): Result.Cycles is
	// then the critical path over Shards concurrent legs. 0 — and
	// JSON-omitted — for one-shard (whole-table) cells.
	Shards int `json:",omitempty"`
}

// ResultSet is the aggregate outcome of a sweep, ordered by cell index.
type ResultSet struct {
	Cells []CellResult
}

// Results flattens the set into its simulation results, in cell order.
func (rs *ResultSet) Results() []Result {
	out := make([]Result, len(rs.Cells))
	for i, c := range rs.Cells {
		out[i] = c.Result
	}
	return out
}

// BestCycles reports the lowest cycle count among cells of arch, or 0
// when the set has none — the normalisation baseline figure tables use.
func (rs *ResultSet) BestCycles(arch query.Arch) uint64 {
	var best uint64
	for _, c := range rs.Cells {
		if c.Cell.Plan.Arch == arch && (best == 0 || c.Result.Cycles < best) {
			best = c.Result.Cycles
		}
	}
	return best
}

// Best returns the lowest-cycle cell per architecture, in architecture
// order.
func (rs *ResultSet) Best() []CellResult {
	best := map[query.Arch]CellResult{}
	for _, c := range rs.Cells {
		b, ok := best[c.Cell.Plan.Arch]
		if !ok || c.Result.Cycles < b.Result.Cycles {
			best[c.Cell.Plan.Arch] = c
		}
	}
	archs := make([]query.Arch, 0, len(best))
	for a := range best {
		archs = append(archs, a)
	}
	sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })
	out := make([]CellResult, len(archs))
	for i, a := range archs {
		out[i] = best[a]
	}
	return out
}

// Run expands the grid and executes every cell through the worker pool.
// Empty Tuples/Seeds axes inherit cfg's values, so a grid that doesn't
// sweep the workload runs at the scale the caller configured — matching
// how Config.Tuples governs Run and Figure.
func Run(cfg Config, g Grid, opt Options) (*ResultSet, error) {
	if len(g.Tuples) == 0 && cfg.Tuples > 0 {
		g.Tuples = []int{cfg.Tuples}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{cfg.Seed}
	}
	cells, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return RunCells(cfg, cells, opt)
}

// tableCache resolves each distinct workload's table, selectivity and
// shard split exactly once per sweep, even when many tasks ask
// concurrently. The tables themselves come from the process-wide db
// memo, so repeated sweeps and figure runs over the same (tuples, seed,
// clustering) triples share one generated table.
type tableCache struct {
	mu     sync.Mutex
	shards int
	tables map[workload]*tableEntry
}

type tableEntry struct {
	once sync.Once
	tab  *db.Table
	sel  float64
	// shards is tab cut into the sweep's shard count (tab itself at one
	// shard); err is why it could not be cut.
	shards []*db.Table
	err    error
}

func (tc *tableCache) get(w workload) *tableEntry {
	tc.mu.Lock()
	e, ok := tc.tables[w]
	if !ok {
		e = &tableEntry{}
		tc.tables[w] = e
	}
	tc.mu.Unlock()
	e.once.Do(func() {
		if w.Clustered {
			e.tab = db.GenerateClusteredMemo(w.Tuples, w.Seed, w.NoiseDays)
		} else {
			e.tab = db.GenerateMemo(w.Tuples, w.Seed)
		}
		if w.Kind == query.Q1Agg {
			e.sel = db.SelectivityQ1(e.tab, w.Q1)
		} else {
			e.sel = db.Selectivity(e.tab, w.Q)
		}
		if tc.shards > 1 {
			e.shards, e.err = db.Partition(e.tab, tc.shards)
		} else {
			e.shards = []*db.Table{e.tab}
		}
	})
	return e
}

// RunCells executes an explicit cell list. The cells' Tuples/Seed
// fields select their tables; cfg contributes the machine and energy
// models. Each cell runs as max(1, opt.CellShards) (cell, shard) tasks
// on one worker pool; a whole-table cell is the one-shard case. Every
// cell runs even if another fails, and the returned error is the first
// failure in cell order (deterministic regardless of worker count); the
// ResultSet is nil on error.
func RunCells(cfg Config, cells []Cell, opt Options) (*ResultSet, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	n := max(1, opt.CellShards)

	// Every task's machine fits the largest shard a task simulates (at
	// one shard, the largest table).
	rows := 0
	for _, c := range cells {
		rows = max(rows, shardRows(c.Tuples, n))
	}
	mc := cfg.machineFor(rows)
	cfg.Machine = &mc

	r := &cellRun{cells: cells, opt: opt, n: n,
		cache: tableCache{shards: n, tables: map[workload]*tableEntry{}},
		// Exact legs draw mc machines from the process-wide pool. The
		// cost model prices estimate legs and routes auto-arch cells.
		leg: Leg{Config: cfg,
			Params: cost.ParamsFor(mc, cfg.energyModel()),
			Exec:   opt.Exec, Counters: opt.Counters},
		slots: make([]CellResult, len(cells)*n),
		errs:  make([]error, len(cells)*n),
		setup: make([]sync.Once, len(cells)),
		done:  make([]atomic.Int32, len(cells)),
	}
	ForEach(len(r.slots), opt.EffectiveWorkers(), r.task)

	// Tasks are in (cell, shard) order, so the first task error is the
	// first failing cell's.
	for _, err := range r.errs {
		if err != nil {
			return nil, err
		}
	}
	// Each cell's result was built in its shard-0 slot; compact them in
	// place (slot c*n >= c is read before any write reaches it).
	rs := &ResultSet{Cells: r.slots[:len(cells):len(cells)]}
	for c := range rs.Cells {
		rs.Cells[c] = r.slots[c*n]
	}
	rs.computeSpeedups()
	return rs, nil
}

// cellRun is one RunCells call's shared state. Task t is shard t%n of
// cell t/n. Outcomes are slot-indexed and each cell merges in shard
// order, so worker scheduling cannot leak into any result.
type cellRun struct {
	cells []Cell
	opt   Options
	n     int
	cache tableCache
	leg   Leg

	// Per task: its partial (a cell's result is built in the cell's
	// shard-0 slot) and its error.
	slots []CellResult
	errs  []error
	// Per cell: the set-up guard and the number of finished tasks.
	setup []sync.Once
	done  []atomic.Int32

	progressMu sync.Mutex
	completed  int
}

// task runs one (cell, shard) task; the cell's last task to finish
// merges it.
func (r *cellRun) task(t int) {
	c, s := t/r.n, t%r.n
	cell := r.cells[c]
	e := r.cache.get(cell.workload())
	head := &r.slots[c*r.n]
	r.setup[c].Do(func() { r.prepare(c, e, head) })
	if r.errs[t] == nil {
		plan := cell.Plan
		if head.Routing != nil {
			plan = head.Routing.Chosen
		}
		p, err := r.leg.Run(e.shards[s], plan)
		r.slots[t].Result, r.slots[t].Counters = p.Result, p.Counters
		switch {
		case err == nil:
		case r.n > 1:
			r.errs[t] = fmt.Errorf("sweep: cell %d (%s) shard %d: %w", c, cell, s, err)
		default:
			r.errs[t] = fmt.Errorf("sweep: cell %d (%s): %w", c, cell, err)
		}
	}
	if r.done[c].Add(1) == int32(r.n) {
		r.finish(c)
	}
}

// prepare is a cell's set-up, run by the first of its tasks. It fills
// the cell's result header and, for an auto cell, decides the routing
// on the whole table — the same cost.Pick call at every shard count,
// so routing is independent of shard and worker counts. A failure (a
// table too small to cut, no fitting candidate) is recorded against
// every task of the cell, so each task reads only its own error slot.
func (r *cellRun) prepare(c int, e *tableEntry, head *CellResult) {
	cell := r.cells[c]
	head.Index, head.Cell, head.Selectivity, head.Mode = c, cell, e.sel, r.opt.Exec
	if r.n > 1 {
		head.Shards = r.n
	}
	err := e.err
	if err == nil && cell.Plan.Auto() {
		// Substitute each backend into the cell's shape and
		// run the predicted-fastest.
		head.Routing, err = cost.Pick(r.leg.Params, e.tab, cell.Plan.Candidates(cell.Tuples))
	}
	if err != nil {
		err = fmt.Errorf("sweep: cell %d (%s): %w", c, cell, err)
		for t := c * r.n; t < (c+1)*r.n; t++ {
			r.errs[t] = err
		}
	}
}

// finish runs after a cell's last task: it folds the shard partials
// into the cell's result in shard order (a failed cell keeps a zero
// Result) and reports the cell's progress.
func (r *cellRun) finish(c int) {
	slots := r.slots[c*r.n : (c+1)*r.n]
	head := &slots[0]
	switch {
	case slices.ContainsFunc(r.errs[c*r.n:(c+1)*r.n], func(err error) bool { return err != nil }):
		head.Result, head.Counters = Result{}, nil
	case r.n > 1:
		p := Fold(r.n, func(s int) Partial { return Partial{slots[s].Result, slots[s].Counters} })
		head.Result, head.Counters = p.Result, p.Counters
	}
	if r.opt.OnCell != nil {
		r.progressMu.Lock()
		r.completed++
		r.opt.OnCell(r.completed, len(r.cells), *head)
		r.progressMu.Unlock()
	}
}

// ForEach calls fn(i) for every i in [0, n) on a pool of workers
// goroutines (capped at n, at least one) and returns once every call
// has returned; with nothing to do it starts none and allocates
// nothing. fn must write its outcome to an index-addressed slot, so
// results cannot depend on scheduling. It is the one fan-out under
// every sweep cell and every serving shard task.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for range max(1, min(workers, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				fn(i)
			}
		}()
	}
	for i := range n {
		indices <- i
	}
	close(indices)
	wg.Wait()
}

// computeSpeedups fills the per-cell speedup against each workload
// group's baseline (best x86 cycles in the group, else the group best).
func (rs *ResultSet) computeSpeedups() {
	baseline := map[workload]uint64{}
	groupBest := map[workload]uint64{}
	for _, c := range rs.Cells {
		w := c.Cell.workload()
		cyc := c.Result.Cycles
		if b, ok := groupBest[w]; !ok || cyc < b {
			groupBest[w] = cyc
		}
		if c.Cell.Plan.Arch == query.X86 {
			if b, ok := baseline[w]; !ok || cyc < b {
				baseline[w] = cyc
			}
		}
	}
	for i := range rs.Cells {
		w := rs.Cells[i].Cell.workload()
		base, ok := baseline[w]
		if !ok {
			base = groupBest[w]
		}
		rs.Cells[i].Speedup = rs.Cells[i].Result.Speedup(base)
	}
}
