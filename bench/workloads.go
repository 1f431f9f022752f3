package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/hipe-sim/hipe/internal/cost"
	"github.com/hipe-sim/hipe/internal/db"
	"github.com/hipe-sim/hipe/internal/energy"
	"github.com/hipe-sim/hipe/internal/harness"
	"github.com/hipe-sim/hipe/internal/machine"
	"github.com/hipe-sim/hipe/internal/obs"
	"github.com/hipe-sim/hipe/internal/query"
	"github.com/hipe-sim/hipe/internal/sweep"
)

// scale sizes a run. The benchmark runs at fullScale; the smoke test
// shrinks it.
type scale struct {
	tuples   int
	requests int           // serve-fleet stream length (plan-estimate serves twice this)
	driver   time.Duration // how long each isolated layer driver runs
}

var fullScale = scale{tuples: 16384, requests: 1000, driver: 500 * time.Millisecond}

// op is one checked unit of work of a pass — a sweep cell, a serving
// leg, a group of priced cells. out is its simulated output in
// canonical text form: it must repeat exactly across passes, between
// the untraced and the traced pass, and (at the golden seed) match
// testdata/golden.json.
type op struct {
	name string
	out  string
}

// passResult is what one untraced pass produced.
type passResult struct {
	ops []op
	// lat holds the host time of each op completion: the gap since the
	// previous completion (for a one-worker sweep, the op's own time).
	lat []time.Duration
	// outcome holds the pass's simulated outcome metrics, all
	// deterministic for a given seed.
	outcome map[string]float64
}

// tracedResult is what the traced pass produced: its ops (compared by
// name with the last untraced pass), the further comparisons it made
// against that pass and how many failed, and outcome metrics only it
// can measure.
type tracedResult struct {
	ops                 []op
	checked, mismatches int
	outcome             map[string]float64
}

// instance is one workload set up for one seed.
type instance interface {
	// pass runs the workload once, untraced.
	pass() (passResult, error)
	// traced runs the same work single-threaded, calling each layer
	// directly with a span around every call and adding each machine
	// run's counters to ctr.
	traced(tr *tracer, ctr *obs.Counters) (tracedResult, error)
	// workers is the worker-pool size the untraced pass uses.
	workers() int
}

// workload is one benchmark workload. why records why it exists.
type workload struct {
	name string
	why  string
	// warmup discards the first pass: the program fills caches on it
	// that every later load test reuses (routing decisions, sharded
	// estimates).
	warmup bool
	setup  func(sc scale, seed uint64) (instance, error)
}

var workloads = []workload{
	{name: "figures", setup: setupFigures,
		why: "the four Figure 3 panels on one worker: stalled tuple-at-a-time cores dominate, so per-cycle core and scheduler work shows; carries the paper-accuracy check"},
	{name: "sweep-mixed", setup: setupSweepMixed,
		why: "a 130-cell exact sweep on two workers over Q06 selectivities, Q01 aggregation and clustered tables: engines, links and DRAM dominate, machines are reset and reused"},
	{name: "serve-fleet", setup: setupServeFleet, warmup: true,
		why: "a 2-pool x 4-shard fleet serving an auto-routed Q06/Q01 stream at three open-loop rates, under faults, and closed-loop: routing, admission and replay"},
	{name: "plan-estimate", setup: setupPlanEstimate, warmup: true,
		why: "estimate mode only: prices a wide plan grid and serves a fleet load test without building a machine, so simulator changes must leave it unchanged"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// queryName renders a cell's predicate and table, the parts of a cell
// its plan string leaves out.
func queryName(c sweep.Cell) string {
	s := fmt.Sprintf("qty<%d", c.Plan.Q.QtyHi)
	if c.Plan.Kind == query.Q1Agg {
		s = fmt.Sprintf("ship<=%d", c.Plan.Q1.ShipCut)
	}
	if c.Clustered {
		s += fmt.Sprintf(" clustered±%dd", c.NoiseDays)
	}
	return s
}

// cellOut renders a cell's simulated outputs.
func cellOut(r sweep.Result, sel float64) string {
	return fmt.Sprintf("cycles=%d dram_pj=%s squashed=%d saved_b=%d sel=%s groups=%v",
		r.Cycles, fmtFloat(r.Energy.DRAMPJ()), r.Squashed, r.SquashedDRAMBytes, fmtFloat(sel), r.Groups)
}

// table generates (fresh, not memoised) the table a cell runs over.
func table(c sweep.Cell) *db.Table {
	if c.Clustered {
		return db.GenerateClustered(c.Tuples, c.Seed, c.NoiseDays)
	}
	return db.Generate(c.Tuples, c.Seed)
}

func selectivity(tab *db.Table, p query.Plan) float64 {
	if p.Kind == query.Q1Agg {
		return db.SelectivityQ1(tab, p.Q1)
	}
	return db.Selectivity(tab, p.Q)
}

// tableKey identifies a cell's table.
type tableKey struct {
	clustered bool
	noise     int32
}

// cells is an exact sweep workload: a cell list run through
// sweep.RunCells on a fixed worker count.
type cells struct {
	cfg    sweep.Config
	mc     machine.Config
	cells  []sweep.Cell
	names  []string
	nwork  int
	tables map[tableKey]*db.Table
	// estimateErr makes the traced pass price every cell with the cost
	// model too and report the worst relative cycle error.
	estimateErr bool
	// paper makes the pass report the Figure 3d accuracy.
	paper bool
}

// newCells sets up a cell workload. It generates each table fresh —
// the work a cold process's first sweep pays — and fills the
// process-wide table memo the sweep engine reads, so no pass pays it.
func newCells(sc scale, seed uint64, list []sweep.Cell, names []string, nwork int) *cells {
	c := &cells{cfg: sweep.Config{Tuples: sc.tuples, Seed: seed}, cells: list, names: names,
		nwork: nwork, tables: map[tableKey]*db.Table{}}
	// The sweep engine sizes its machines' images to the largest table;
	// the traced pass builds the same machine.
	c.mc = machine.Default()
	c.mc.ImageBytes = db.ImageBytesFor(sc.tuples)
	for _, cell := range list {
		k := tableKey{cell.Clustered, cell.NoiseDays}
		if _, ok := c.tables[k]; !ok {
			c.tables[k] = table(cell)
			if cell.Clustered {
				db.GenerateClusteredMemo(cell.Tuples, cell.Seed, cell.NoiseDays)
			} else {
				db.GenerateMemo(cell.Tuples, cell.Seed)
			}
		}
	}
	return c
}

func setupFigures(sc scale, seed uint64) (instance, error) {
	cfg := sweep.Config{Tuples: sc.tuples, Seed: seed}
	var list []sweep.Cell
	var names []string
	for _, fig := range harness.Figures() {
		cs, err := harness.FigureCells(cfg, fig)
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			list = append(list, c)
			names = append(names, fig+"/"+c.Plan.String())
		}
	}
	c := newCells(sc, seed, list, names, 1)
	c.paper = true
	return c, nil
}

// sweepMixedGrid is the sweep-mixed cell set: 4 architectures x {64,
// 256} B x {8, 32} unroll (trimmed to each envelope) x three Q06
// quantity bounds and two Q01 cuts x uniform and date-clustered tables.
func sweepMixedGrid(sc scale, seed uint64) sweep.Grid {
	var qs []db.Q06
	for _, qty := range []int32{2, 24, 50} {
		q := db.DefaultQ06()
		q.QtyHi = qty
		qs = append(qs, q)
	}
	return sweep.Grid{
		Archs:       []query.Arch{query.X86, query.HMC, query.HIVE, query.HIPE},
		Strategies:  []query.Strategy{query.ColumnAtATime},
		OpSizes:     []uint32{64, 256},
		Unrolls:     []int{8, 32},
		Queries:     qs,
		Q1Queries:   []db.Q01{db.DefaultQ01(), {ShipCut: 1500}},
		Tuples:      []int{sc.tuples},
		Seeds:       []uint64{seed},
		Clustered:   []bool{false, true},
		NoiseDays:   10,
		SkipInvalid: true,
	}
}

func setupSweepMixed(sc scale, seed uint64) (instance, error) {
	list, err := sweepMixedGrid(sc, seed).Expand()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(list))
	for i, c := range list {
		names[i] = c.Plan.String() + " " + queryName(c)
	}
	c := newCells(sc, seed, list, names, 2)
	c.estimateErr = true
	return c, nil
}

func (c *cells) workers() int { return c.nwork }

func (c *cells) pass() (passResult, error) {
	var lat []time.Duration
	last := time.Now()
	rs, err := sweep.RunCells(c.cfg, c.cells, sweep.Options{Workers: c.nwork,
		OnCell: func(int, int, sweep.CellResult) {
			now := time.Now()
			lat = append(lat, now.Sub(last))
			last = now
		}})
	if err != nil {
		return passResult{}, err
	}
	res := passResult{lat: lat, outcome: map[string]float64{}}
	for i, cr := range rs.Cells {
		res.ops = append(res.ops, op{name: c.names[i], out: cellOut(cr.Result, cr.Selectivity)})
	}
	if c.paper {
		res.outcome["paper_err_pct"] = paperErr(rs)
	}
	return res, nil
}

// paperFig3d holds the paper's Figure 3d speedups over x86 (Tomé et
// al., DATE 2018).
var paperFig3d = map[query.Arch]float64{query.HMC: 5.15, query.HIVE: 7.55, query.HIPE: 6.46}

// paperErr is the largest relative error, in percent, of the
// reproduced Figure 3d speedups against the paper's.
func paperErr(rs *sweep.ResultSet) float64 {
	best := harness.BestPlans(db.DefaultQ06())
	cycles := map[query.Arch]float64{}
	for _, cr := range rs.Cells {
		if cr.Cell.Plan == best[cr.Cell.Plan.Arch] {
			cycles[cr.Cell.Plan.Arch] = float64(cr.Result.Cycles)
		}
	}
	worst := 0.0
	for arch, paper := range paperFig3d {
		worst = math.Max(worst, math.Abs(cycles[query.X86]/cycles[arch]/paper-1))
	}
	return 100 * worst
}

// traced replays every cell on one reused machine.
func (c *cells) traced(tr *tracer, ctr *obs.Counters) (tracedResult, error) {
	tabs := map[tableKey]*db.Table{}
	tr.do("setup", func() {
		for k := range c.tables {
			tr.do("db.generate", func() {
				tabs[k] = table(sweep.Cell{Tuples: c.cfg.Tuples, Seed: c.cfg.Seed, Clustered: k.clustered, NoiseDays: k.noise})
			})
		}
	})
	r := &cellRunner{mc: c.mc, em: energy.Default()}
	params := cost.ParamsFor(c.mc, r.em)
	sels := map[sweep.Cell]float64{}
	res := tracedResult{outcome: map[string]float64{}}
	worst := 0.0
	for i, cell := range c.cells {
		tab := tabs[tableKey{cell.Clustered, cell.NoiseDays}]
		var out sweep.Result
		var err error
		tr.opSpan(c.names[i], func() {
			// The selectivity is a per-table/predicate figure; key it
			// by the cell with its plan's shape axes zeroed.
			key := sweep.Cell{Plan: query.Plan{Kind: cell.Plan.Kind, Q: cell.Plan.Q, Q1: cell.Plan.Q1},
				Clustered: cell.Clustered}
			if _, ok := sels[key]; !ok {
				tr.do("db.selectivity", func() { sels[key] = selectivity(tab, cell.Plan) })
			}
			out, err = r.exec(tr, ctr, tab, cell.Plan, true)
			if err == nil && c.estimateErr {
				var est cost.Estimate
				tr.do("cost.estimate", func() { est, err = cost.EstimatePlan(params, cell.Plan, cost.ProfileFor(tab, cell.Plan)) })
				worst = math.Max(worst, math.Abs(est.Cycles/float64(out.Cycles)-1))
			}
			res.ops = append(res.ops, op{name: c.names[i], out: cellOut(out, sels[key])})
		})
		if err != nil {
			return tracedResult{}, fmt.Errorf("cell %s: %w", c.names[i], err)
		}
	}
	if c.estimateErr {
		res.outcome["estimate_err_pct"] = 100 * worst
	}
	res.outcome["energy.dram_pj"] = r.dramPJ
	return res, nil
}

// cellRunner runs plans the way the sweep engine's and the serving
// layer's workers do — one machine, reset between runs — with a span
// around each layer call. Only the sweep engine audits energy.
type cellRunner struct {
	mc machine.Config
	em energy.Model
	m  *machine.Machine
	// dramPJ totals the audited DRAM energy.
	dramPJ float64
}

func (r *cellRunner) exec(tr *tracer, ctr *obs.Counters, tab *db.Table, p query.Plan, audit bool) (sweep.Result, error) {
	var err error
	if r.m == nil {
		tr.do("machine.new", func() { r.m, err = machine.New(r.mc) })
		if err != nil {
			return sweep.Result{}, err
		}
	} else {
		tr.do("machine.reset", r.m.Reset)
	}
	m := r.m
	var w *query.Workload
	tr.do("query.prepare", func() { w, err = query.Prepare(m, tab, p) })
	if err != nil {
		return sweep.Result{}, err
	}
	// Code generation is timed on its own by draining a second stream of
	// the same workload: generators are pure functions of the prepared
	// workload, so the run below regenerates the identical stream.
	tr.do("query.codegen", func() {
		s := w.Stream()
		for _, ok := s.Next(); ok; _, ok = s.Next() {
		}
	})
	var cycles uint64
	tr.do("machine.run", func() { cycles = uint64(m.Run(w.Stream())) })
	tr.do("query.verify", func() { err = w.Verify() })
	if err != nil {
		return sweep.Result{}, err
	}
	var e energy.Breakdown
	if audit {
		tr.do("energy.audit", func() {
			e = r.em.Audit(m.Registry, cycles, int(r.mc.Geometry.Vaults), uint64(r.mc.DRAM.ClockRatio))
		})
		r.dramPJ += e.DRAMPJ()
	}
	tr.do("obs.capture", func() { ctr.Add(obs.Capture(m.Registry, m.Engine)) })
	scope := "hipe"
	if p.Arch == query.HIVE {
		scope = "hive"
	}
	return sweep.Result{
		Plan:              p,
		Cycles:            cycles,
		Energy:            e,
		Checked:           w.Checked(),
		Squashed:          m.Registry.Scope(scope).Get("squashed"),
		SquashedDRAMBytes: m.Registry.Scope(scope).Get("squashed_dram_bytes"),
		Groups:            w.GroupResults(),
	}, nil
}
